package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xt910/internal/campaign"
	"xt910/internal/cliflags"
	"xt910/internal/cosim"
)

// fleet is one coordinator: a campaign engine in a throw-away state
// directory behind an ephemeral loopback listener. Workers, when a run uses
// them, live only for that run (started right after Submit, so they lease at
// once and the idle poll interval never enters a measurement).
type fleet struct {
	eng  *campaign.Engine
	opts campaign.Options
	srv  *http.Server
	url  string
	dir  string
	done chan error // Serve's return
}

// openFleet creates the state directory under workdir and starts serving.
// pure makes the engine a dispatcher only (no in-process executor).
func openFleet(sc scope, workdir string, pure bool) (*fleet, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "campaign-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, done: make(chan error, 1),
		opts: campaign.Options{StateDir: dir, Jobs: 2, DisableLocal: pure}}
	s := sc.begin("campaign", "campaign.Open")
	f.eng, err = campaign.Open(f.opts)
	s.end(1)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.eng.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: campaign.NewHandler(f.eng)}
	campaign.HardenServer(f.srv)
	go func() { f.done <- f.srv.Serve(ln) }()
	return f, nil
}

// close stops the listener and the engine and removes the state directory.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if serr := <-f.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	f.eng.Close()
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// reopen closes the engine and opens it again on the same state directory —
// what a restarted xtcampd does. The listener keeps the old handler: nothing
// talks to it after this.
func (f *fleet) reopen(sc scope) error {
	f.eng.Close()
	s := sc.begin("campaign", "campaign.resume")
	eng, err := campaign.Open(f.opts)
	s.end(1)
	if err != nil {
		return err
	}
	f.eng = eng
	return nil
}

// timingTransport records every worker→coordinator request as a span and
// every fencing rejection (409) as a zero-length one.
type timingTransport struct {
	sc   scope
	next *http.Transport
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := t.sc.begin("campaign", "campaign.http")
	resp, err := t.next.RoundTrip(req)
	s.end(1)
	if err == nil && resp.StatusCode == http.StatusConflict {
		t.sc.add("campaign", "campaign.http.conflict", 0, 1)
	}
	return resp, err
}

const campaignPoll = time.Millisecond

// run submits spec, starts the given number of single-job workers, waits
// for the campaign to finish and checks the merged report against want
// (nil: no reference, as for bench items). The span named after kind covers
// Submit to done and counts the items.
func (f *fleet) run(ctx context.Context, sc scope, kind string, spec *campaign.Spec, workers int, want []byte) error {
	s := sc.begin("campaign", "campaign.run."+kind)
	sub := s.begin("campaign", "campaign.Submit")
	id, err := f.eng.Submit(spec)
	sub.end(1)
	if err != nil {
		s.end(0)
		return err
	}

	tt := &timingTransport{sc: s, next: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer tt.next.CloseIdleConnections()
	wctx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		opts := campaign.WorkerOptions{Coordinator: f.url, ID: fmt.Sprintf("w%d", i+1), Jobs: 1,
			Client: &http.Client{Transport: tt, Timeout: 30 * time.Second}}
		go func() {
			defer wg.Done()
			_ = campaign.RunWorker(wctx, opts) // only ever reports bad options
		}()
	}
	var st campaign.Status
	for {
		st, _ = f.eng.Get(id)
		if st.Status == campaign.StatusDone || st.Status == campaign.StatusFailed || ctx.Err() != nil {
			break
		}
		time.Sleep(campaignPoll)
	}
	s.end(uint64(len(spec.Items())))
	stop()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if st.Status != campaign.StatusDone {
		return fmt.Errorf("campaign %s (%s): %s: %s", id, kind, st.Status, st.Error)
	}

	rs := sc.begin("campaign", "campaign.Report")
	got, err := f.eng.Report(id)
	rs.end(1)
	if err != nil {
		return err
	}
	if want != nil && !bytes.Equal(got, want) {
		return fmt.Errorf("campaign %s (%s): merged report differs from the direct run (%d vs %d bytes)",
			id, kind, len(got), len(want))
	}
	journals, err := filepath.Glob(filepath.Join(f.dir, id, "shard*.jsonl"))
	if err != nil {
		return err
	}
	var size int64
	for _, p := range journals {
		if fi, err := os.Stat(p); err == nil {
			size += fi.Size()
		}
	}
	sc.add("campaign", "campaign.journal", 0, uint64(size))
	return nil
}

// fuzzSpec is the campaign the fleet workload runs: n base-mode seeds in 8
// shards, width left to the executor.
func fuzzSpec(n int, seed int64) *campaign.Spec {
	return &campaign.Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: n, Seed: seed}, Shards: 8}
}

// nullSpec is n bench items that simulate nothing (table1/table2 are
// constant tables), so the run costs only lease, journal and merge work.
func nullSpec(n int) *campaign.Spec {
	exps := make([]string, n)
	for i := range exps {
		exps[i] = []string{"table1", "table2"}[i%2]
	}
	return &campaign.Spec{Tool: "bench", Experiments: exps, Shards: 8}
}

// directReport is what `xtfuzz -json` prints for the spec's seed range: the
// reference every merged report must equal byte for byte. It returns the
// JSONL and the summed commits and cycles.
func directReport(ctx context.Context, sc scope, spec *campaign.Spec) (jsonl []byte, commits, cycles uint64, err error) {
	s := sc.begin("campaign", "campaign.run.direct")
	defer func() { s.end(uint64(spec.N)) }()
	rs := s.begin("cosim", "cosim.RunSeeds")
	frs, err := cosim.RunSeeds(ctx, spec.Seeds(), spec.Segs, cosim.Options{SeedTimeout: seedTimeout}, 2)
	for _, fr := range frs {
		commits += fr.Result.Commits
		cycles += fr.Result.Cycles
	}
	rs.end(commits)
	if err != nil {
		return nil, 0, 0, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, fr := range frs {
		if err := checkFuzz(fr); err != nil {
			return nil, 0, 0, err
		}
		if err := enc.Encode(cosim.NewSeedRecord(fr)); err != nil {
			return nil, 0, 0, err
		}
	}
	return buf.Bytes(), commits, cycles, nil
}
