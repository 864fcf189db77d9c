package bench

import (
	"context"
	"strings"
	"testing"

	"xt910/internal/sched"
)

// quick runs each figure in smoke mode and sanity-checks its shape claims.

func TestFig17Shape(t *testing.T) {
	r, err := Fig17(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	ratio := r.Rows[len(r.Rows)-1].Measured
	if ratio <= 1.0 {
		t.Fatalf("XT-910 must beat the U74-class on CoreMark (got %.2fx)", ratio)
	}
}

// TestEnvReachesExperiments: Fig17 reads its cores from Options.Env — a
// wider U74-class issue moves the ratio — and the zero Env is StockEnv.
func TestEnvReachesExperiments(t *testing.T) {
	ctx, _ := Scoped(context.Background(), 2)
	ratio := func(env Env) float64 {
		t.Helper()
		r, err := Fig17(ctx, Options{Quick: true, Jobs: 2, Env: env})
		if err != nil {
			t.Fatal(err)
		}
		return r.Rows[len(r.Rows)-1].Measured
	}
	stock := ratio(Env{})
	if got := ratio(StockEnv()); got != stock {
		t.Fatalf("StockEnv ratio %v, zero Env %v", got, stock)
	}
	wide := StockEnv()
	wide.U74.IssueWidth = 4
	if got := ratio(wide); got >= stock {
		t.Fatalf("U74-class issue width 2 -> 4 left the ratio at %v (stock %v)", got, stock)
	}
}

func TestFig18Shape(t *testing.T) {
	r, err := Fig18(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	geo := r.Rows[len(r.Rows)-1].Measured
	if geo < 0.8 || geo > 2.0 {
		t.Fatalf("EEMBC geomean vs A73-class should be near parity-or-better, got %.2f", geo)
	}
}

func TestFig19Shape(t *testing.T) {
	r, err := Fig19(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	geo := r.Rows[len(r.Rows)-1].Measured
	if geo < 0.8 || geo > 2.0 {
		t.Fatalf("NBench geomean vs A73-class should be near parity-or-better, got %.2f", geo)
	}
}

func TestFig20Shape(t *testing.T) {
	r, err := Fig20(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	geo := r.Rows[len(r.Rows)-1].Measured
	if geo <= 1.05 {
		t.Fatalf("toolchain gain must be positive (paper ~1.2x), got %.2fx", geo)
	}
}

func TestFig21Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-bound sweep")
	}
	r, err := Fig21(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	// shape: monotone a < b < c <= d, and e slightly below d
	get := func(prefix string) float64 {
		for _, row := range r.Rows {
			if strings.HasPrefix(row.Label, prefix) {
				return row.Measured
			}
		}
		t.Fatalf("row %q missing", prefix)
		return 0
	}
	a, b, c, d, e := get("a:"), get("b:"), get("c:"), get("d:"), get("e:")
	if a != 1.0 {
		t.Fatalf("scenario a must be the 1.0 baseline")
	}
	if !(b > 1.5) {
		t.Fatalf("L1 prefetch must give a large win (paper 3.8x), got %.2fx", b)
	}
	if !(c > b) {
		t.Fatalf("adding L2+TLB prefetch must help (paper 4.9x > 3.8x): b=%.2f c=%.2f", b, c)
	}
	if d < 0.97*c {
		t.Fatalf("large distance must not hurt materially (paper 5.4x): c=%.2f d=%.2f", c, d)
	}
	if e > 1.005*d {
		t.Fatalf("disabling TLB prefetch must not help (paper -2.4%%): d=%.2f e=%.2f", d, e)
	}
}

func TestSpecShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large footprint")
	}
	r, err := SpecInt(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	ratio := r.Rows[len(r.Rows)-1].Measured
	if ratio < 0.6 || ratio > 1.8 {
		t.Fatalf("SPEC-like ratio out of plausible band: %.2f", ratio)
	}
}

func TestTableReproductions(t *testing.T) {
	r1, err := Table1(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r1.Format())
	r2, err := Table2(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r2.Format())
}

func TestVectorMACShape(t *testing.T) {
	r, err := VectorMAC(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	var scalar, vector float64
	for _, row := range r.Rows {
		switch row.Label {
		case "scalar MACs/cycle":
			scalar = row.Measured
		case "vector MACs/cycle":
			vector = row.Measured
		}
	}
	if vector <= scalar {
		t.Fatalf("vector MAC rate must exceed scalar: %.2f vs %.2f", vector, scalar)
	}
}

func TestASIDShape(t *testing.T) {
	r, err := ASID(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	red := r.Rows[len(r.Rows)-1].Measured
	if red < 10 {
		t.Fatalf("16-bit ASID must cut flushes by >=10x (paper: ~10x), got %.1fx", red)
	}
}

func TestHugePagesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-bound sweep")
	}
	r, err := HugePages(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	var wr float64
	for _, row := range r.Rows {
		if row.Label == "walk reduction" {
			wr = row.Measured
		}
	}
	if wr <= 2 {
		t.Fatalf("huge pages must cut page-table walks substantially, got %.1fx", wr)
	}
}

func TestBlockchainShape(t *testing.T) {
	r, err := Blockchain(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	sp := r.Rows[len(r.Rows)-1].Measured
	if sp <= 1.1 {
		t.Fatalf("extensions must accelerate the hash kernel, got %.2fx", sp)
	}
}

func TestAblationsRun(t *testing.T) {
	r, err := Ablations(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	for _, row := range r.Rows {
		if row.Measured < 0.90 {
			t.Errorf("%s: disabling a mechanism should not speed things up markedly (%.2fx)",
				row.Label, row.Measured)
		}
	}
}

func TestDensityShape(t *testing.T) {
	r, err := Density(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	var ratio float64
	for _, row := range r.Rows {
		if row.Label == "size ratio" {
			ratio = row.Measured
		}
	}
	if ratio >= 0.99 || ratio <= 0.5 {
		t.Fatalf("RVC size ratio implausible: %.2f", ratio)
	}
}

// BenchmarkRunAllQuick times one whole evaluation at Quick size and Jobs 2,
// and reports how many simulations it executed.
func BenchmarkRunAllQuick(b *testing.B) {
	var sims int
	for i := 0; i < b.N; i++ {
		ctx, sc := Scoped(context.Background(), 2)
		if err := sched.FirstError(RunAll(ctx, Options{Quick: true, Jobs: 2})); err != nil {
			b.Fatal(err)
		}
		sims, _ = sc.Sims()
	}
	b.ReportMetric(float64(sims), "sims/op")
}
