// Command xtcampd is the campaign daemon: a sharded, resumable front end for
// the xtfuzz / xtinject / xtbench campaign tools behind an HTTP/JSON API
// (internal/campaign). It is also the distributed coordinator: remote
// xtworker processes pull shard leases over the same API.
//
// Usage:
//
//	xtcampd                          # listen on 127.0.0.1:8910, state in ./xtcampd.state
//	xtcampd -addr 127.0.0.1:0        # ephemeral port (printed on stderr)
//	xtcampd -state /var/lib/xtcamp   # durable state directory
//	xtcampd -jobs 4                  # default per-shard worker width
//	xtcampd -lease-ttl 10s           # shard lease TTL (missed heartbeats expire it)
//	xtcampd -local=false             # pure coordinator: shards only run on workers
//	xtcampd -pprof 127.0.0.1:6060    # live net/http/pprof on its own listener (address logged)
//
// Quickstart (see README.md for the full walkthrough):
//
//	curl -d '{"tool":"fuzz","n":100,"seed":1,"shards":4}' localhost:8910/api/v1/campaigns
//	curl localhost:8910/api/v1/campaigns/c0001            # live progress + lease ages
//	curl localhost:8910/api/v1/campaigns/c0001/report     # merged JSONL when done
//	curl localhost:8910/api/v1/campaigns/c0001/repro/17   # shrunken reproducer
//
// Every finished work item is journaled to the state directory before the
// daemon acknowledges it, so a killed daemon — SIGKILL included — resumes on
// restart without re-running finished seeds, and the resumed campaign's
// merged report is byte-identical to an uninterrupted run. The same holds
// for killed workers: their leases expire, the shard requeues, and
// keep-first journal dedup makes the at-least-once re-run invisible in the
// report. When no workers ever connect, the daemon runs every shard itself.
// SIGTERM/SIGINT drain gracefully: new submissions and lease traffic get
// 503, in-flight items are cancelled at the next boundary, and the listener
// closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"xt910/internal/campaign"
	"xt910/internal/cliflags"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("xtcampd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8910", "listen address (host:0 picks an ephemeral port)")
	state := fs.String("state", "xtcampd.state", "state directory (campaign journals, reports, corpus)")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0),
		"default per-shard worker width (reports identical at any width)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second,
		"shard lease TTL; a worker silent this long loses the shard back to the queue")
	local := fs.Bool("local", true,
		"run shards in-process when no remote worker is live (false: pure coordinator)")
	localGrace := fs.Duration("local-grace", 0,
		"how long the in-process executor waits for remote workers before picking up shards")
	pprofAddr := cliflags.RegisterPprof(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logger := log.New(stderr, "", log.LstdFlags)
	pprofBound, stopPprof, err := cliflags.ServePprof(*pprofAddr)
	if err != nil {
		fmt.Fprintf(stderr, "xtcampd: -pprof: %v\n", err)
		return 2
	}
	defer stopPprof()
	if pprofBound != nil {
		logger.Printf("xtcampd: pprof on http://%s/debug/pprof/", pprofBound)
	}

	eng, err := campaign.Open(campaign.Options{
		StateDir:     *state,
		Jobs:         *jobs,
		LeaseTTL:     *leaseTTL,
		DisableLocal: !*local,
		LocalGrace:   *localGrace,
		Logf:         logger.Printf,
	})
	if err != nil {
		fmt.Fprintf(stderr, "xtcampd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "xtcampd: %v\n", err)
		eng.Close()
		return 1
	}
	// The one line a supervisor (or the smoke test) parses: the resolved
	// listen address, ephemeral port included.
	fmt.Fprintf(stderr, "xtcampd: listening on http://%s state=%s\n", ln.Addr(), *state)

	srv := &http.Server{Handler: campaign.NewHandler(eng)}
	campaign.HardenServer(srv)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-sig
		fmt.Fprintln(stderr, "xtcampd: draining (finished items are journaled; resume on restart)")
		eng.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(stderr, "xtcampd: %v\n", err)
		eng.Close()
		return 1
	}
	<-done
	return 0
}
