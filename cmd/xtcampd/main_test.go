package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCampaignSmoke is the end-to-end restart-resume proof behind
// `make campaign-smoke`: boot the real daemon, submit a fuzz campaign over
// HTTP, SIGKILL the daemon mid-campaign, restart it over the same state
// directory, poll the resumed campaign to completion, and diff the merged
// report byte-for-byte against a direct `xtfuzz -json` run of the same seed
// range. Gated behind XTCAMPD_SMOKE=1 so the ordinary (race-enabled) test
// sweep does not pay for two binary builds and a daemon lifecycle.
func TestCampaignSmoke(t *testing.T) {
	if os.Getenv("XTCAMPD_SMOKE") == "" {
		t.Skip("set XTCAMPD_SMOKE=1 (or run `make campaign-smoke`) for the end-to-end smoke")
	}

	bin := t.TempDir()
	campd := filepath.Join(bin, "xtcampd")
	fuzz := filepath.Join(bin, "xtfuzz")
	for pkg, out := range map[string]string{"xt910/cmd/xtcampd": campd, "xt910/cmd/xtfuzz": fuzz} {
		cmd := exec.Command("go", "build", "-o", out, pkg)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, b)
		}
	}

	state := filepath.Join(t.TempDir(), "state")
	const (
		nSeeds = 32
		seed0  = 1
		segs   = 80
	)

	// Boot, submit, and let a few items land in the journals.
	d1 := startDaemon(t, campd, state)
	spec := fmt.Sprintf(`{"tool":"fuzz","n":%d,"seed":%d,"segs":%d,"shards":3,"jobs":2}`, nSeeds, seed0, segs)
	resp, err := http.Post(d1.url+"/api/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || sub.ID == "" {
		t.Fatalf("submit: id missing (%v), status %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	st := pollCampaign(t, d1.url, sub.ID, func(s campStatus) bool { return s.ItemsDone >= 1 })
	if st.Status == "done" {
		t.Fatalf("campaign finished before the kill; grow the seed range to keep the smoke honest")
	}

	// SIGKILL: no drain, no goodbye. The journals are the only survivors.
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	d1.cmd.Wait()

	// Restart over the same state directory; the campaign must resume and
	// finish without re-running journaled seeds.
	d2 := startDaemon(t, campd, state)
	defer func() {
		d2.cmd.Process.Signal(syscall.SIGTERM)
		d2.cmd.Wait()
	}()
	pollCampaign(t, d2.url, sub.ID, func(s campStatus) bool { return s.Status == "done" })

	resp, err = http.Get(d2.url + "/api/v1/campaigns/" + sub.ID + "/report")
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	report, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d: %s", resp.StatusCode, report)
	}

	// The oracle: a direct xtfuzz -json run over the same seed range.
	direct := exec.Command(fuzz, "-json",
		"-n", fmt.Sprint(nSeeds), "-seed", fmt.Sprint(seed0), "-segs", fmt.Sprint(segs), "-jobs", "2")
	var stdout, stderr bytes.Buffer
	direct.Stdout, direct.Stderr = &stdout, &stderr
	if err := direct.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			// exit 1 means xtfuzz found a real divergence — still comparable
			t.Fatalf("xtfuzz: %v\n%s", err, stderr.Bytes())
		}
	}
	if !bytes.Equal(report, stdout.Bytes()) {
		t.Fatalf("killed-and-resumed campaign report differs from direct xtfuzz -json\n--- campaign ---\n%s--- xtfuzz ---\n%s",
			report, stdout.Bytes())
	}
}

type daemon struct {
	cmd *exec.Cmd
	url string
}

// startDaemon boots xtcampd on an ephemeral port and parses the resolved
// address off its stderr listen line.
func startDaemon(t *testing.T, bin, state string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-state", state, "-jobs", "2"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					addr <- fields[0]
				}
			}
		}
	}()
	select {
	case a := <-addr:
		return &daemon{cmd: cmd, url: "http://" + a}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never printed its listen line")
		return nil
	}
}

type campStatus struct {
	Status    string `json:"status"`
	Error     string `json:"error"`
	ItemsDone int    `json:"items_done"`
	Items     int    `json:"items"`
}

func pollCampaign(t *testing.T, base, id string, ready func(campStatus) bool) campStatus {
	t.Helper()
	deadline := time.Now().Add(180 * time.Second)
	for {
		resp, err := http.Get(base + "/api/v1/campaigns/" + id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		var s campStatus
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("status decode: %v", err)
		}
		if s.Status == "failed" {
			t.Fatalf("campaign failed: %s", s.Error)
		}
		if ready(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck: %+v", id, s)
		}
		time.Sleep(3 * time.Millisecond)
	}
}

// TestPprofFlagUnbindable: a -pprof address that cannot be bound is a usage
// error, reported before any state directory or API listener is opened.
func TestPprofFlagUnbindable(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state")
	var errb bytes.Buffer
	if rc := run([]string{"-addr", "127.0.0.1:0", "-state", state, "-pprof", "127.0.0.1:notaport"}, &errb); rc != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", rc, errb.String())
	}
	if !strings.Contains(errb.String(), "xtcampd: -pprof:") {
		t.Errorf("stderr does not name the flag: %s", errb.String())
	}
	if _, err := os.Stat(state); !os.IsNotExist(err) {
		t.Errorf("the state directory was opened before -pprof was checked (err=%v)", err)
	}
}
