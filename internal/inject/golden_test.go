package inject

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/campaign_golden.txt from this build")

const campaignGoldenFile = "testdata/campaign_golden.txt"

// TestCampaignGolden pins what the checker detects, and when: the campaign of
// xtinject -n 12 -faults 8 — its report (outcome table and detection-latency
// lines) and one line per fault with its outcome, the divergence kind and the
// commit it was injected at and caught at. A fault caught at a different
// commit, or no longer caught, moves a line. Regenerate with -update-golden
// only for a change meant to move what the fault runs simulate.
func TestCampaignGolden(t *testing.T) {
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	rep, err := RunCampaign(context.Background(), Options{
		Seeds:         seeds,
		FaultsPerSeed: 8,
		Jobs:          2,
		Timeout:       5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(rep.Format())
	b.WriteString("\nfaults:\n")
	for _, fr := range rep.Results {
		fmt.Fprintf(&b, "  seed %d %s cycle=%d reg=%d bit=%d index=%d: %s",
			fr.Seed, fr.Target, fr.Cycle, fr.Reg, fr.Bit, fr.Index, fr.Outcome)
		if fr.Outcome == Detected {
			fmt.Fprintf(&b, " %s injected@%d caught@%d", fr.Kind, fr.CommitsAtInject, fr.CommitsAtInject+fr.DetectLatency)
		}
		b.WriteByte('\n')
	}
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(campaignGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(campaignGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got:  %s\n  want: %s", i+1, g, w)
		}
	}
}
