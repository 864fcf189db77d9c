package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"xt910/internal/bench"
	"xt910/internal/calib"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the generated blocks of EXPERIMENTS.md from this build")

// experimentsDoc is the paper-vs-measured document whose every measured
// number is a generated block.
const experimentsDoc = "../../EXPERIMENTS.md"

// docBlock matches one generated block of experimentsDoc, capturing its id.
var docBlock = regexp.MustCompile("(?s)<!-- xtbench[^:]*: ([a-z0-9]+) -->\n.*?<!-- end -->")

// block is the generated block for one section: a marker naming the command
// and the id, then the command's section in a text fence.
func block(cmd, id, section string) string {
	return "<!-- " + cmd + ": " + id + " -->\n```text\n" + section + "```\n<!-- end -->"
}

// TestExperimentsDoc holds EXPERIMENTS.md to the code: each experiment's
// block must be exactly its table in `xtbench -quick` stdout, and the
// fidelity block exactly the newest checked-in FIDELITY_*.json as
// `xtbench -fidelity -quick` prints it. Every id has one block and no block
// names an unknown id. -update-golden rewrites the blocks in place.
func TestExperimentsDoc(t *testing.T) {
	if raceDetector {
		t.Skip("a whole -quick run under the race detector takes minutes; tier1 runs this test without it")
	}
	var out, errb bytes.Buffer
	if rc := run([]string{"-quick"}, &out, &errb); rc != 0 {
		t.Fatalf("xtbench -quick: exit %d\n%s", rc, errb.String())
	}
	// each table ends with a blank line; the first line is "== id: title =="
	var ids []string
	want := make(map[string]string) // id -> its block
	for _, sec := range strings.SplitAfter(out.String(), "\n\n") {
		if sec == "" {
			continue
		}
		id, _, _ := strings.Cut(strings.TrimPrefix(sec, "== "), ":")
		ids = append(ids, id)
		want[id] = block("xtbench -quick", id, strings.TrimSuffix(sec, "\n"))
	}
	var registry []string
	for _, e := range bench.Experiments() {
		registry = append(registry, e.ID)
	}
	if strings.Join(ids, " ") != strings.Join(registry, " ") {
		t.Fatalf("xtbench -quick printed sections %v, want one per experiment %v", ids, registry)
	}
	base, err := resolveBaseline("../..")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var fid calib.Result
	if err := json.Unmarshal(data, &fid); err != nil {
		t.Fatalf("%s: %v", base, err)
	}
	ids = append(ids, "fidelity")
	want["fidelity"] = block("xtbench -fidelity -quick", "fidelity", fid.Format())

	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make(map[string]int)
	updated := docBlock.ReplaceAllStringFunc(string(doc), func(m string) string {
		id := docBlock.FindStringSubmatch(m)[1]
		blocks[id]++
		w, ok := want[id]
		if !ok {
			t.Errorf("EXPERIMENTS.md: block %q names no experiment (have: %s)", id, strings.Join(ids, " "))
			return m
		}
		if m != w && !*updateGolden {
			t.Errorf("EXPERIMENTS.md: block %q differs from the code's output (-want +doc; rerun with -update-golden):\n%s",
				id, lineDiff(w, m))
		}
		return w
	})
	for _, id := range ids {
		if n := blocks[id]; n != 1 {
			t.Errorf("EXPERIMENTS.md: %d blocks for %q, want 1", n, id)
		}
	}
	if *updateGolden && !t.Failed() && updated != string(doc) {
		if err := os.WriteFile(experimentsDoc, []byte(updated), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// lineDiff lists each line where got departs from want.
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := range max(len(wl), len(gl)) {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "  line %d\n  - %s\n  + %s\n", i+1, w, g)
		}
	}
	return b.String()
}

// TestJSONErrorExit pins the contract that -json mode still exits non-zero
// when an experiment arm errors, and that the error is both recorded in the
// JSON output and printed on stderr, as text mode prints it. An expired
// deadline forces the error without running any simulation.
func TestJSONErrorExit(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-json", "-only", "spec", "-timeout", "1ns"}, &out, &errb)
	if rc != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", rc, errb.String())
	}
	var recs []struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out.Bytes(), &recs); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out.String())
	}
	if len(recs) != 1 || recs[0].ID != "spec" || recs[0].Error == "" {
		t.Fatalf("want one record for %q with an error, got %+v", "spec", recs)
	}
	if line := "xtbench: " + recs[0].Error + "\n"; !strings.Contains(errb.String(), line) {
		t.Fatalf("stderr lacks %q:\n%s", line, errb.String())
	}
}

// TestSimsCounters: the invocation's simulation counts go to stderr — as a
// JSON object under -json — and never to stdout.
func TestSimsCounters(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-quick", "-only", "vector"}, &out, &errb); rc != 0 {
		t.Fatalf("exit = %d (stderr: %s)", rc, errb.String())
	}
	if !strings.Contains(errb.String(), "sims_run 3  sims_reused 0") || strings.Contains(out.String(), "sims_") {
		t.Fatalf("want the counts on stderr only\nstderr: %s\nstdout: %s", errb.String(), out.String())
	}
	out.Reset()
	errb.Reset()
	if rc := run([]string{"-quick", "-json", "-only", "vector"}, &out, &errb); rc != 0 {
		t.Fatalf("-json: exit = %d (stderr: %s)", rc, errb.String())
	}
	var sims struct {
		Run    int `json:"sims_run"`
		Reused int `json:"sims_reused"`
	}
	if err := json.Unmarshal(errb.Bytes(), &sims); err != nil || sims.Run != 3 || sims.Reused != 0 {
		t.Fatalf("-json stderr: %v, %+v\n%s", err, sims, errb.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-only", "nope"}, &out, &errb); rc != 2 {
		t.Fatalf("exit = %d, want 2", rc)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Fatalf("stderr missing diagnostic: %s", errb.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-definitely-not-a-flag"}, &out, &errb); rc != 2 {
		t.Fatalf("exit = %d, want 2", rc)
	}
}

// TestTrackFlagValidation pins the -track flag surface: -baseline without
// -track is a usage error, and so is -track without -fidelity (with or
// without -only) — the host-speed comparison it once ran is benchmark/'s.
func TestTrackFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-baseline", "FIDELITY_PR9.json"},
		{"-track"},
		{"-track", "-only", "spec"},
	} {
		var out, errb bytes.Buffer
		if rc := run(args, &out, &errb); rc != 2 {
			t.Fatalf("run(%v) = %d, want 2 (stderr: %s)", args, rc, errb.String())
		}
	}
}

// TestResolveBaseline covers the default-baseline lookup: newest FIDELITY_*.json
// by mtime wins, non-matching files are ignored, and an empty directory is a
// clear error rather than a panic on a hardcoded filename.
func TestResolveBaseline(t *testing.T) {
	dir := t.TempDir()
	if _, err := resolveBaseline(dir); err == nil {
		t.Fatal("empty dir: want error, got nil")
	} else if !strings.Contains(err.Error(), baselinePattern) {
		t.Fatalf("empty dir: error should name the pattern, got %v", err)
	}

	write := func(name string, age time.Duration) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("[]"), 0o644); err != nil {
			t.Fatal(err)
		}
		mt := time.Now().Add(-age)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write("FIDELITY_PR5.json", 3*time.Hour)
	newest := write("FIDELITY_PR9.json", time.Hour)
	write("FIDELITY_PR7.json", 2*time.Hour)
	write("notes.json", 0) // does not match the pattern; must not win

	got, err := resolveBaseline(dir)
	if err != nil {
		t.Fatalf("resolveBaseline: %v", err)
	}
	if got != newest {
		t.Fatalf("resolveBaseline = %s, want newest %s", got, newest)
	}
}

// TestResolveBaselineMtimeTie: when every candidate carries the same mtime
// (the git-checkout case), the lexicographically greatest name must win,
// deterministically, whatever order the files were created or globbed in.
func TestResolveBaselineMtimeTie(t *testing.T) {
	dir := t.TempDir()
	mt := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, name := range []string{"FIDELITY_PR9.json", "FIDELITY_PR10.json", "FIDELITY_PR7.json"} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("[]"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	got, err := resolveBaseline(dir)
	if err != nil {
		t.Fatalf("resolveBaseline: %v", err)
	}
	// ASCII order, so PR9 > PR7 > PR10 — the tie-break is lexicographic by
	// name, not numeric by PR.
	if want := filepath.Join(dir, "FIDELITY_PR9.json"); got != want {
		t.Fatalf("mtime tie: resolveBaseline = %s, want %s", got, want)
	}

	// A strictly newer file still beats any name.
	p := filepath.Join(dir, "FIDELITY_PR10.json")
	newer := mt.Add(time.Minute)
	if err := os.Chtimes(p, newer, newer); err != nil {
		t.Fatal(err)
	}
	got, err = resolveBaseline(dir)
	if err != nil {
		t.Fatalf("resolveBaseline: %v", err)
	}
	if got != p {
		t.Fatalf("newer mtime: resolveBaseline = %s, want %s", got, p)
	}
}

// TestFidelityFlagValidation pins the -fidelity flag surface: it replaces
// the experiment sweep, so -only alongside it is a usage error.
func TestFidelityFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-fidelity", "-only", "spec"}, &out, &errb); rc != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", rc, errb.String())
	}
	if !strings.Contains(errb.String(), "-fidelity") {
		t.Fatalf("stderr missing diagnostic: %s", errb.String())
	}
}

// TestFidelityTrackGate exercises the fidelity regression gate against
// synthetic baselines: schema drift, an error regression past the tolerance
// and an uncalibrated value that moved at all are hard errors;
// within-tolerance drift of the calibrated error passes.
func TestFidelityTrackGate(t *testing.T) {
	point := func(id string, errCal float64) calib.PointReport {
		return calib.PointReport{ID: id, Figure: "fig17", Paper: 1.39, Uncalibrated: 1.25, ErrCal: errCal}
	}
	cur := &calib.Result{Schema: calib.Schema, Points: []calib.PointReport{point("fig17/coremark-ratio", 0.30)}}

	writeDoc := func(t *testing.T, r *calib.Result) string {
		t.Helper()
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "FIDELITY_BASE.json")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	var errb bytes.Buffer
	ok := writeDoc(t, &calib.Result{Schema: calib.Schema, Points: []calib.PointReport{point("fig17/coremark-ratio", 0.29)}})
	if err := fidelityTrack(&errb, ok, cur); err != nil {
		t.Fatalf("within tolerance: %v", err)
	}

	worse := writeDoc(t, &calib.Result{Schema: calib.Schema, Points: []calib.PointReport{point("fig17/coremark-ratio", 0.20)}})
	if err := fidelityTrack(&errb, worse, cur); err == nil {
		t.Fatal("regressed error: want gate failure, got nil")
	} else if !strings.Contains(err.Error(), "fig17/coremark-ratio") {
		t.Fatalf("gate error should name the point: %v", err)
	}

	badSchema := writeDoc(t, &calib.Result{Schema: "bogus", Points: cur.Points})
	if err := fidelityTrack(&errb, badSchema, cur); err == nil {
		t.Fatal("schema drift: want error, got nil")
	}

	missing := writeDoc(t, &calib.Result{Schema: calib.Schema, Points: []calib.PointReport{
		point("fig17/coremark-ratio", 0.30), point("fig99/gone", 0.1),
	}})
	if err := fidelityTrack(&errb, missing, cur); err == nil {
		t.Fatal("dropped point: want error, got nil")
	}

	doctored := point("fig17/coremark-ratio", 0.30)
	doctored.Uncalibrated = math.Nextafter(doctored.Uncalibrated, 2)
	moved := writeDoc(t, &calib.Result{Schema: calib.Schema, Points: []calib.PointReport{doctored}})
	if err := fidelityTrack(&errb, moved, cur); err == nil {
		t.Fatal("moved uncalibrated value: want gate failure, got nil")
	} else if !strings.Contains(err.Error(), "fig17/coremark-ratio") {
		t.Fatalf("gate error should name the point: %v", err)
	}
}

// TestProfileFlags checks -cpuprofile/-memprofile write non-empty profiles
// around an experiment run, and that a bad path is a usage error.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb")
	var out, errb bytes.Buffer
	if rc := run([]string{"-quick", "-only", "table1", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb); rc != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", rc, errb.String())
	}
	for _, f := range []string{cpu, mem} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written or empty (err=%v)", f, err)
		}
	}
	if rc := run([]string{"-only", "table1", "-cpuprofile", filepath.Join(dir, "missing", "cpu.pb")}, &out, &errb); rc != 2 {
		t.Fatalf("unwritable -cpuprofile: exit = %d, want 2", rc)
	}
}
