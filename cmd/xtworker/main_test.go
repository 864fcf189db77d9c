package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"xt910/internal/campaign"
	"xt910/internal/cliflags"
)

// TestProfileFlags serves one shard of a small fuzz campaign from a pure
// dispatcher and checks -cpuprofile/-memprofile leave non-empty profiles
// behind when the worker exits.
func TestProfileFlags(t *testing.T) {
	e, err := campaign.Open(campaign.Options{StateDir: t.TempDir(), DisableLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := httptest.NewServer(campaign.NewHandler(e))
	defer srv.Close()
	id, err := e.Submit(&campaign.Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 3, Seed: 1}, Segs: 10})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb")
	var errb bytes.Buffer
	args := []string{"-coordinator", srv.URL, "-id", "prof", "-jobs", "1", "-poll", "20ms",
		"-shards", "1", "-cpuprofile", cpu, "-memprofile", mem}
	if rc := run(args, &errb); rc != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", rc, errb.String())
	}
	if st, ok := e.Get(id); !ok || st.Status != campaign.StatusDone {
		t.Errorf("campaign after the worker's one shard: %+v", st)
	}
	for _, f := range []string{cpu, mem} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written or empty (err=%v)", f, err)
		}
	}

	if rc := run([]string{"-coordinator", srv.URL, "-cpuprofile", filepath.Join(dir, "missing", "cpu.pb")}, &errb); rc != 2 {
		t.Errorf("unwritable -cpuprofile: exit = %d, want 2", rc)
	}
}

// TestPprofFlag: -pprof binds its own listener and logs the resolved address;
// the campaign API mux the worker talks to never serves /debug/pprof/; an
// address that cannot be bound is a usage error.
func TestPprofFlag(t *testing.T) {
	e, err := campaign.Open(campaign.Options{StateDir: t.TempDir(), DisableLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := httptest.NewServer(campaign.NewHandler(e))
	defer srv.Close()
	if _, err := e.Submit(&campaign.Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 2, Seed: 1}, Segs: 10}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("the campaign API mux answers /debug/pprof/ with %d, want 404", resp.StatusCode)
	}

	var errb bytes.Buffer
	args := []string{"-coordinator", srv.URL, "-id", "pp", "-jobs", "1", "-poll", "20ms", "-shards", "1", "-pprof", "127.0.0.1:0"}
	if rc := run(args, &errb); rc != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", rc, errb.String())
	}
	if !regexp.MustCompile(`xtworker: pprof on http://127\.0\.0\.1:[1-9][0-9]*/debug/pprof/`).Match(errb.Bytes()) {
		t.Errorf("the bound -pprof address was not logged:\n%s", errb.String())
	}

	errb.Reset()
	if rc := run([]string{"-coordinator", srv.URL, "-pprof", "127.0.0.1:notaport"}, &errb); rc != 2 {
		t.Errorf("unbindable -pprof: exit = %d, want 2\nstderr: %s", rc, errb.String())
	}
}
