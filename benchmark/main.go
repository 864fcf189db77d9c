// Command benchmark is the repository's benchmark: six workloads, each run
// untraced for the end-to-end metrics and traced for one record per layer.
// It calls every layer only through its public functions and times the
// calls from outside; BENCHMARK.json at the repository root names the
// workloads and metrics, and README.md in this directory explains them.
//
//	go run ./benchmark                                  # every workload, both passes
//	go run ./benchmark -workload core-memory -trace 0   # end-to-end metrics only
//	go run ./benchmark -workload cosim-fuzz -trace 1    # the layer ledger only
//	go run ./benchmark -selfcheck                       # two untraced suites, compared against the bounds
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the one list of workload and metric names, units,
// directions and bounds. The program reads it instead of repeating it, and
// refuses to print a metric it does not name or to omit one it does.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	reps      int
	trace     string // "0": untraced pass only, "1": traced pass only, "": both
	traceOut  string
	workdir   string
	specPath  string
	smoke     bool
	selfcheck bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all six, in order)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: fuzz and campaign seed window, kernel order")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure each workload for about this long (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.reps, "reps", 0, "measure exactly this many repetitions instead of filling -seconds")
	fs.StringVar(&o.trace, "trace", "", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; unset: both")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of the traced pass (default: <workdir>/spans-<workload>.jsonl)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for campaign state and span files")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "the benchmark definition to report against")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs: exercises every code path in seconds, measures nothing")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced suite twice and compare the two against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.trace != "" && o.trace != "0" && o.trace != "1") {
		fmt.Fprintln(stderr, "benchmark: usage: -trace takes 0 or 1; no positional arguments")
		return 2
	}
	sp, err := loadSpec(o.specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.smoke && o.reps == 0 {
		o.reps = 1
	}
	todo := suite
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		todo = []workload{w}
	}
	if err := checkSuite(sp); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	printEnv(stdout)
	ctx := context.Background()
	if o.selfcheck {
		return selfcheck(ctx, o, sp, todo, stdout, stderr)
	}
	for _, w := range todo {
		res, err := runWorkload(ctx, o, sp, w, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// checkSuite makes sure the code and BENCHMARK.json name the same workloads.
func checkSuite(sp *spec) error {
	var have, want []string
	for _, w := range suite {
		have = append(have, w.name)
	}
	for _, w := range sp.Workloads {
		want = append(want, w.Name)
	}
	if strings.Join(have, ",") != strings.Join(want, ",") {
		return fmt.Errorf("workloads are %v but BENCHMARK.json names %v", have, want)
	}
	return nil
}

func printEnv(w io.Writer) {
	commit := os.Getenv("BENCH_COMMIT") // run.sh builds without VCS stamping and passes it here
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// result is the benchmark's last line of output for one workload.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report attaches units to measured values and insists that they are
// exactly the metrics BENCHMARK.json names, each a finite number.
func report(defs []metricDef, values map[string]float64, into map[string]metricValue) error {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		into[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := into[name]; !ok {
			return fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
		}
	}
	return nil
}

func (o options) env() env {
	e := env{seed: o.seed, sz: fullSizes, workdir: o.workdir}
	if o.smoke {
		e.sz = smokeSizes
	}
	return e
}

// runWorkload runs the passes -trace selects and prints their tables.
func runWorkload(ctx context.Context, o options, sp *spec, w workload, out io.Writer) (result, error) {
	res := result{Correct: true, Metrics: make(map[string]metricValue)}
	fmt.Fprintf(out, "\n== %s (seed %d) ==\n", w.name, o.seed)
	if o.trace != "1" {
		start := time.Now()
		u, err := untraced(ctx, o, w)
		if err != nil {
			return res, err
		}
		u.print(out, sp)
		fmt.Fprintf(out, "  info: pass took %.1f s\n", time.Since(start).Seconds())
		res.Attempted += u.attempted
		res.Failed += u.failed
		if err := report(sp.EndToEnd, u.metrics(), res.Metrics); err != nil {
			return res, err
		}
	}
	if o.trace != "0" {
		start := time.Now()
		t, err := traced(ctx, o, w)
		if err != nil {
			return res, err
		}
		t.print(out, sp)
		fmt.Fprintf(out, "  info: pass took %.1f s\n", time.Since(start).Seconds())
		res.Attempted += t.attempted
		res.Failed += t.failed
		if err := report(sp.PerLayer, t.values, res.Metrics); err != nil {
			return res, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// ---------------------------------------------------------------------------
// the untraced pass: end-to-end metrics

const (
	setupRuns = 5 // set-up is timed this many times; setup_s is the median
	minReps   = 2 // measured repetitions, however long one takes
)

type repStat struct {
	wall    time.Duration
	ops     int // ops that succeeded
	instrs  uint64
	mallocs uint64
}

type untracedRun struct {
	setups    []time.Duration
	reps      []repStat // measured repetitions, warm-up excluded
	attempted int
	failed    int
	failures  []string // the first few failure messages
	digest    string
}

// tally folds one repetition's ops into the run and returns its stats and
// its digest of simulated counts.
func tally(ops []opResult, attempted, failed *int, failures *[]string) (repStat, string) {
	var st repStat
	lines := make([]string, 0, len(ops))
	for _, op := range ops {
		n := op.ops
		if n == 0 {
			n = 1
		}
		*attempted += n
		if op.err != nil {
			*failed += n
			if len(*failures) < 5 {
				*failures = append(*failures, fmt.Sprintf("%s: %v", op.name, op.err))
			}
			continue
		}
		st.ops += n
		st.instrs += op.instrs
		lines = append(lines, fmt.Sprintf("%s %d %d %d", op.name, op.cycles, op.instrs, op.commits))
	}
	// ops sorted by name: the seed may reorder them, the counts must not care
	sort.Strings(lines)
	return st, fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n"))))
}

func untraced(ctx context.Context, o options, w workload) (*untracedRun, error) {
	u := &untracedRun{}
	var inst instance
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = w.setup(ctx, scope{}, o.env()); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		u.setups = append(u.setups, time.Since(start))
	}
	defer inst.close()

	budget := time.Duration(o.seconds * float64(time.Second))
	warm := 0
	if w.warmup {
		warm = 1
	}
	begin := time.Now()
	for r := 0; ; r++ {
		runtime.GC() // every repetition starts from a collected heap
		m0 := mallocs()
		start := time.Now()
		ops := inst.rep(ctx, scope{})
		wall := time.Since(start)
		st, digest := tally(ops, &u.attempted, &u.failed, &u.failures)
		st.wall, st.mallocs = wall, mallocs()-m0
		if u.digest == "" {
			u.digest = digest
		} else if digest != u.digest && st.ops == len(ops) {
			// deterministic simulator: a clean repetition that counts
			// differently from the first is a failure in its own right
			u.failed++
			u.failures = append(u.failures, fmt.Sprintf("repetition %d: simulated counts differ from repetition 0", r))
		}
		if r >= warm {
			u.reps = append(u.reps, st)
		}
		if o.reps > 0 {
			if len(u.reps) == o.reps {
				break
			}
			continue
		}
		// stop when one more repetition would overshoot the budget by more
		// than it undershoots now, but never before a second measured
		// repetition; work per repetition never shrinks
		if len(u.reps) >= minReps && time.Since(begin)+wall/2 > budget {
			break
		}
	}
	return u, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// metrics are the end-to-end metrics: each the median over the measured
// repetitions (over the set-up runs for setup_s).
func (u *untracedRun) metrics() map[string]float64 {
	var mips, ops, wall, allocs, setup []float64
	for _, r := range u.reps {
		s := r.wall.Seconds()
		wall = append(wall, s)
		mips = append(mips, float64(r.instrs)/s/1e6)
		ops = append(ops, float64(r.ops)/s)
		allocs = append(allocs, ratio(float64(r.mallocs)*1000, float64(r.instrs)))
	}
	for _, d := range u.setups {
		setup = append(setup, d.Seconds())
	}
	return map[string]float64{
		"sim_mips":          median(mips),
		"ops_per_s":         median(ops),
		"wall_s":            median(wall),
		"allocs_per_kinstr": median(allocs),
		"setup_s":           median(setup),
	}
}

func (u *untracedRun) print(out io.Writer, sp *spec) {
	fmt.Fprintf(out, "untraced pass: %d set-ups, %d measured repetitions, %d/%d ops failed\n",
		len(u.setups), len(u.reps), u.failed, u.attempted)
	for _, f := range u.failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	printMetrics(out, sp.EndToEnd, u.metrics())
	var walls []string
	for _, r := range u.reps {
		walls = append(walls, strconv.FormatFloat(r.wall.Seconds(), 'f', 3, 64))
	}
	fmt.Fprintf(out, "  info: repetition walls [%s] s; sim_digest %s\n", strings.Join(walls, " "), u.digest)
}

func printMetrics(out io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better, bound %g%%)", d.Better, 100*d.Bound)
		}
		fmt.Fprintf(out, "  %-34s %14.6g %-14s%s\n", d.Name, values[d.Name], d.Unit, bound)
	}
}

// ---------------------------------------------------------------------------
// the traced pass: per-layer metrics

type tracedRun struct {
	values    map[string]float64
	attempted int
	failed    int
	failures  []string // the first few failure messages
	digest    string
	repSelf   map[string]time.Duration // self time by layer inside the traced repetition
	repWall   time.Duration
	spanFile  string
	spans     int
}

func traced(ctx context.Context, o options, w workload) (*tracedRun, error) {
	tr := newTracer(w.name)
	t := &tracedRun{}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	sc := tr.root(repSetup).begin("host", "setup")
	inst, err := w.setup(ctx, sc, o.env())
	sc.end(1)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()

	// the same repetition twice: spans off (which also warms up), spans on
	runtime.GC()
	start := time.Now()
	ops := inst.rep(ctx, scope{})
	plain := time.Since(start)
	tally(ops, &t.attempted, &t.failed, &t.failures)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	rs := tr.root(0).begin("host", "rep")
	ops = inst.rep(ctx, rs)
	rs.end(uint64(len(ops)))
	t.repWall = time.Since(start)
	runtime.ReadMemStats(&m1)
	st, digest := tally(ops, &t.attempted, &t.failed, &t.failures)
	t.digest = digest

	in, err := inst.inputs(ctx, tr.root(repLedger))
	if err != nil {
		return nil, fmt.Errorf("ledger inputs: %w", err)
	}
	lg := runLedger(ctx, tr, in)
	t.attempted += lg.attempted
	for _, err := range lg.err {
		if len(t.failures) < 5 {
			t.failures = append(t.failures, err.Error())
		}
	}
	t.failed += len(lg.err)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m := lg.m
	busy := tr.selfByLayer(func(span) bool { return true })
	m["emu.busy_s"] = busy["emu"].Seconds()
	m["core.busy_s"] = busy["core"].Seconds()
	m["host.trace_overhead_ratio"] = ratio(t.repWall.Seconds(), plain.Seconds())
	m["host.alloc_bytes_per_instr"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(st.instrs))
	m["host.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["host.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["host.peak_rss_mb"] = peakRSSMB()
	t.values = m
	t.repSelf = tr.selfByLayer(func(s span) bool { return s.Rep >= 0 })

	t.spanFile = o.traceOut
	if t.spanFile == "" {
		t.spanFile = filepath.Join(o.workdir, "spans-"+w.name+".jsonl")
	}
	t.spans = len(tr.spans)
	if err := tr.write(t.spanFile); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return t, nil
}

// peakRSSMB reads the process's resident-set high-water mark (Linux).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func (t *tracedRun) print(out io.Writer, sp *spec) {
	fmt.Fprintf(out, "traced pass: one repetition under spans, then the layer ledger; %d/%d checks failed\n",
		t.failed, t.attempted)
	for _, f := range t.failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	printMetrics(out, sp.PerLayer, t.values)
	layers := make([]string, 0, len(t.repSelf))
	for l := range t.repSelf {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return t.repSelf[layers[i]] > t.repSelf[layers[j]] })
	fmt.Fprintf(out, "  info: self time by layer inside the traced repetition (wall %.3f s; parallel spans add up past it):", t.repWall.Seconds())
	for _, l := range layers {
		fmt.Fprintf(out, " %s %.3f s", l, t.repSelf[l].Seconds())
	}
	fmt.Fprintf(out, "\n  info: %d spans written to %s; sim_digest %s\n", t.spans, t.spanFile, t.digest)
}

// ---------------------------------------------------------------------------
// -selfcheck: the repeatability criterion, run on this machine

func selfcheck(ctx context.Context, o options, sp *spec, todo []workload, stdout, stderr io.Writer) int {
	past := 0
	for _, w := range todo {
		var runs [2]*untracedRun
		for i := range runs {
			u, err := untraced(ctx, o, w)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			runs[i] = u
		}
		a, b := runs[0].metrics(), runs[1].metrics()
		fmt.Fprintf(stdout, "\n== %s: two untraced runs ==\n", w.name)
		for _, d := range sp.EndToEnd {
			diff := math.Abs(a[d.Name]-b[d.Name]) / math.Min(a[d.Name], b[d.Name])
			verdict := "ok"
			if diff > d.Bound {
				verdict = "PAST BOUND"
				past++
			}
			fmt.Fprintf(stdout, "  %-20s %14.6g %14.6g  differ %6.2f%%  bound %4.1f%%  %s\n",
				d.Name, a[d.Name], b[d.Name], 100*diff, 100*d.Bound, verdict)
		}
		same := runs[0].digest == runs[1].digest
		fmt.Fprintf(stdout, "  sim_digest equal: %v; failed ops: %d and %d\n", same, runs[0].failed, runs[1].failed)
		if !same || runs[0].failed+runs[1].failed > 0 {
			past++
		}
	}
	if past > 0 {
		fmt.Fprintf(stdout, "\nselfcheck: %d checks past their bound\n", past)
		return 1
	}
	fmt.Fprintln(stdout, "\nselfcheck: every metric of every workload within its bound")
	return 0
}
