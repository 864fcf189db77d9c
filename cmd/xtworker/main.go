// Command xtworker is a campaign worker: it pulls shard leases from an
// xtcampd coordinator, runs each shard through the same loop the
// coordinator's own executor uses, streams finished journal lines back on
// every heartbeat, and completes the shard under its fencing token. Any number of workers on any number of machines can serve
// one coordinator; the merged report stays byte-identical to a direct
// single-process run no matter how workers come, go, or die mid-shard.
//
// Usage:
//
//	xtworker -coordinator http://127.0.0.1:8910             # serve until SIGTERM
//	xtworker -coordinator http://camp:8910 -id rack3-a -jobs 8
//	xtworker -coordinator http://camp:8910 -shards 1        # run one shard and exit
//	xtworker -coordinator http://camp:8910 -cpuprofile w.pb # host CPU profile, written on exit
//	xtworker -coordinator http://camp:8910 -pprof 127.0.0.1:6060  # live net/http/pprof, address logged
//
// A worker that dies — SIGKILL included — simply stops heartbeating; the
// coordinator expires its lease and requeues the shard. Entries the dead
// worker already streamed stay journaled, so the re-run only covers the
// missing items and duplicates merge keep-first.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
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

func run(args []string, stderr io.Writer) (rc int) {
	fs := flag.NewFlagSet("xtworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required), e.g. http://127.0.0.1:8910")
	id := fs.String("id", defaultWorkerID(), "worker identity shown in leases and /progress")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "item pool width within a shard (reports identical at any width)")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle re-poll interval when the coordinator has no work")
	seed := fs.Int64("backoff-seed", 0, "retry-jitter seed (0: derived from -id)")
	shards := fs.Int("shards", 0, "exit after completing this many shards (0: serve until SIGTERM)")
	prof := cliflags.RegisterProfile(fs)
	pprofAddr := cliflags.RegisterPprof(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *coordinator == "" {
		fmt.Fprintln(stderr, "xtworker: -coordinator is required")
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)
	pprofBound, stopPprof, err := cliflags.ServePprof(*pprofAddr)
	if err != nil {
		fmt.Fprintf(stderr, "xtworker: -pprof: %v\n", err)
		return 2
	}
	defer stopPprof()
	if pprofBound != nil {
		logger.Printf("xtworker: pprof on http://%s/debug/pprof/", pprofBound)
	}
	stopProfile, err := cliflags.StartProfile(prof)
	if err != nil {
		fmt.Fprintf(stderr, "xtworker: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(stderr, "xtworker: %v\n", err)
			rc = 1
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logger.Printf("xtworker: draining (in-flight lease will age out or complete)")
		cancel()
	}()

	logger.Printf("xtworker: id=%s coordinator=%s jobs=%d", *id, *coordinator, *jobs)
	err = campaign.RunWorker(ctx, campaign.WorkerOptions{
		Coordinator: *coordinator,
		ID:          *id,
		Jobs:        *jobs,
		Poll:        *poll,
		Seed:        *seed,
		MaxShards:   *shards,
		Logf:        logger.Printf,
	})
	if err != nil {
		fmt.Fprintf(stderr, "xtworker: %v\n", err)
		return 1
	}
	return 0
}

// defaultWorkerID names the worker host-uniquely enough for a small fleet.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}
