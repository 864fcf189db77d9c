package cliflags

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"xt910/internal/core"
	"xt910/internal/cosim"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestSeedsExpansion(t *testing.T) {
	var c Knobs
	fs := newFS()
	c.RegisterSeeds(fs, 100)
	if err := fs.Parse([]string{"-n", "3", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	got := c.Seeds()
	want := []int64{7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("Seeds() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Seeds() = %v, want %v", got, want)
		}
	}
}

// TestModeSpecRejectsIllegal: a spec that is illegal alone, and legal specs
// that a hart count makes illegal, once resolved into the cosim Options a CLI
// runs.
func TestModeSpecRejectsIllegal(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		harts int
	}{
		{"smp,paged", 0},
		{"paged", 2}, // harts imply smp
		{"smp", 3},   // no 3-core cluster (Table I)
	} {
		var k Knobs
		fs := newFS()
		k.RegisterModes(fs)
		if err := fs.Parse([]string{"-modes", tc.spec}); err != nil {
			t.Fatal(err)
		}
		md, err := k.CosimModes()
		if err == nil {
			err = cosim.Options{Modes: md, Harts: tc.harts}.Validate()
		}
		if err == nil {
			t.Errorf("-modes %s with %d harts accepted, want error", tc.spec, tc.harts)
		}
	}
}

// TestKnobsRoundTrip pins the manifest contract: parsed campaign flags survive
// Knobs → JSON → Knobs with identical values, and the recorded -modes spec
// re-parses through the same validator the CLIs use.
func TestKnobsRoundTrip(t *testing.T) {
	fs := newFS()
	var k Knobs
	k.RegisterSeeds(fs, 100)
	k.RegisterPool(fs)
	k.RegisterTimeout(fs, 0, "t")
	k.RegisterModes(fs)
	if err := fs.Parse([]string{"-n", "37", "-seed", "9", "-jobs", "3", "-timeout", "250ms", "-modes", "paged"}); err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	var back Knobs
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != k {
		t.Fatalf("knobs changed across JSON: %+v != %+v", back, k)
	}
	if back != (Knobs{N: 37, Seed: 9, Jobs: 3, Timeout: 250 * time.Millisecond, Modes: "paged"}) {
		t.Fatalf("Knobs = %+v", back)
	}
	if seeds := back.Seeds(); len(seeds) != 37 || seeds[0] != 9 || seeds[36] != 45 {
		t.Fatalf("Seeds() = len %d, first %d, last %d", len(seeds), seeds[0], seeds[len(seeds)-1])
	}
	md, err := back.CosimModes()
	if err != nil || !md.Paged {
		t.Fatalf("CosimModes() = %+v, %v", md, err)
	}
}

// TestKnobsRejectIllegalModes: the recorded spec goes through Validate, so a
// manifest cannot smuggle in a mode combination the CLIs reject.
func TestKnobsRejectIllegalModes(t *testing.T) {
	for _, spec := range []string{"warp", "paged,smp"} {
		if _, err := (Knobs{Modes: spec}).CosimModes(); err == nil {
			t.Fatalf("modes %q: want error, got nil", spec)
		}
	}
}

// TestProfileFlags drives -cpuprofile/-memprofile end to end: both files must
// exist and be non-empty after stop, unset flags must create nothing, and an
// unwritable path is an error at start, before any work is done.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb")
	fs := newFS()
	p := RegisterProfile(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := StartProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written or empty (err=%v)", f, err)
		}
	}

	stop, err = StartProfile(RegisterProfile(newFS()))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Errorf("unset profile flags created files: %v", ents)
	}

	if _, err := StartProfile(&Profile{CPU: filepath.Join(dir, "missing", "cpu.pb")}); err == nil {
		t.Error("unwritable -cpuprofile path: want an error")
	}
}

// TestServePprof: on 127.0.0.1:0 the endpoint binds a port of its own and
// /debug/pprof/ answers with the profile index; stop closes it; an empty
// address binds nothing; an address that cannot be bound is an error.
func TestServePprof(t *testing.T) {
	fs := newFS()
	addr := RegisterPprof(fs)
	if err := fs.Parse([]string{"-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	bound, stop, err := ServePprof(*addr)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + bound.String() + "/debug/pprof/"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("GET %s: status %d, body %.80q", url, resp.StatusCode, body)
	}
	if resp, err := http.Get("http://" + bound.String() + "/healthz"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("the pprof listener must serve nothing else: err=%v", err)
	} else {
		resp.Body.Close()
	}
	stop()
	if _, err := http.Get(url); err == nil {
		t.Error("the endpoint still answers after stop")
	}

	if bound, stop, err := ServePprof(""); err != nil || bound != nil {
		t.Errorf("an empty -pprof must bind nothing: bound=%v err=%v", bound, err)
	} else {
		stop()
	}
	if _, _, err := ServePprof("127.0.0.1:notaport"); err == nil {
		t.Error("an unbindable -pprof address must be an error")
	}
}

// TestCoreConfigFlag: -config picks one of the three presets, defaults to the
// XT-910, and any other name fails fs.Parse.
func TestCoreConfigFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want core.Config
	}{
		{nil, core.XT910Config()},
		{[]string{"-config", "u74"}, core.U74Config()},
		{[]string{"-config", "a73"}, core.A73Config()},
	} {
		fs := newFS()
		cfg := RegisterCoreConfig(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !reflect.DeepEqual(*cfg, tc.want) {
			t.Errorf("%v: got %+v, want %+v", tc.args, *cfg, tc.want)
		}
	}
	fs := newFS()
	RegisterCoreConfig(fs)
	if err := fs.Parse([]string{"-config", "bogus"}); err == nil || !strings.Contains(err.Error(), `unknown config "bogus"`) {
		t.Errorf("-config bogus: err = %v", err)
	}
}
