# xt910 build/test entry points. `make tier1` is the CI gate.

GO ?= go

.PHONY: all build vet fmt-check test cli-smoke fuzz-native-smoke bench-smoke campaign-smoke campaign-chaos-smoke fidelity-track tier1 xtbench clean

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file is not gofmt-clean, naming the files.
fmt-check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# cli-smoke runs the CLIs end to end: xtfuzz on a fixed seed set in each of
# its modes (plain, paged, irq, smp), the xtinject fault campaign, each twice
# — at -jobs 1 and at the default width — and xt910sim's trace self-check and
# the five examples/ programs, twice each, from binaries built once; every run
# must exit clean and the two outputs of a row must be byte-identical
# (cmd/smoke_test.go holds the table). Env-gated so the
# plain `go test ./...` sweep stays cheap. (The packages' own suites run once,
# race-enabled, in tier1's `go test -race ./...`.)
cli-smoke:
	XT_CLI_SMOKE=1 $(GO) test -count=1 -run TestCLISmoke ./cmd

# fuzz-native-smoke gives each native fuzz target ten seconds of mutation on
# top of its seed corpus. asm.FuzzAssemble (a generated program per cosim
# mode, two kernels, the malformed lines that used to panic): any source text
# must come back as an error or a Program, never a panic, and assemble to the
# same bytes twice. isa.FuzzDecode (one encoding of every operation): no
# 32-bit word may panic a decoder, what Encode accepts must round-trip, and
# the golden model's decode memo must answer as a fresh decode does.
# core.FuzzDecodeCache (a loop with one body word rewritten, or one bit flipped
# by the fault injector, behind the core's back): with predecode and
# superblocks on, every instruction fetched afterwards is cracked from the word
# memory holds at its pc, the rule both models' decode caches follow.
# cosim.FuzzGenerate (one entry per mode): for any seed, size, valid mode set
# and shrink mask, the generator's Items build without error, the text they
# print assembles to the same image, and building twice gives the same bytes.
# A crasher is written under the package's testdata/fuzz/ — check it in with
# the fix.
# Minimization is off: shrinking each coverage-expanding 10 KB program would
# eat the whole pass (it ran ten inputs in ten seconds with it, two hundred
# thousand without).
fuzz-native-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/asm
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 0 ./isa
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCache$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzGenerate$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/cosim

# bench-smoke runs each per-package benchmark once, so none can rot unseen:
# the golden model (BenchmarkEmuRun), the checked commit
# (BenchmarkLockstepCommit), the fuzz front end (BenchmarkFuzzProgram), the
# timing core (BenchmarkSimCycle), the SoC driver on a 2-hart timer + IPI
# program (BenchmarkSystemRun: ns per simulated cycle and the elided share),
# the decoder and encoder (BenchmarkDecode/Encode) and the assembler
# (BenchmarkAssembleFuzz). -benchmem puts allocs/op and B/op beside every
# one, so each tier-1 run shows what a fuzz program, a checked session, an
# emulator run and a core run allocate. The paper experiments are not
# benchmarks: TestExperimentsDoc runs them, in tier1.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/emu ./internal/cosim ./internal/core ./internal/soc ./internal/asm ./isa

# campaign-smoke is the end-to-end restart-resume proof for the campaign
# service: boot the real xtcampd daemon on an ephemeral port, submit a fuzz
# campaign over HTTP, SIGKILL the daemon mid-campaign, restart it over the
# same state directory, poll the resumed campaign to completion, and diff the
# merged report byte-for-byte against a direct `xtfuzz -json` run of the same
# seed range. Env-gated so the plain `go test ./...` sweep stays cheap.
campaign-smoke:
	XTCAMPD_SMOKE=1 $(GO) test -count=1 -run TestCampaignSmoke ./cmd/xtcampd

# campaign-chaos-smoke is the distributed-failure proof for the coordinator/
# worker protocol: a pure coordinator (-local=false, 1s lease TTL) with two
# real xtworker processes, one SIGKILLed mid-shard — the survivor absorbs the
# requeued leases and the merged report must stay byte-identical to a direct
# `xtfuzz -json` run.
campaign-chaos-smoke:
	XTCAMPD_CHAOS=1 $(GO) test -count=1 -run TestCampaignChaosSmoke ./cmd/xtcampd

# fidelity-track reruns the quick calibration sweep and gates on the
# paper-vs-measured error table: the run must carry the current schema,
# measure every point the newest checked-in FIDELITY_*.json records, and
# regress no point's calibrated error past the tolerance. Simulation is
# deterministic, so this is a gate. Record a fresh baseline after an
# intentional model change with:
# $(GO) run ./cmd/xtbench -fidelity -quick -json > FIDELITY_PRn.json
fidelity-track:
	$(GO) run ./cmd/xtbench -fidelity -quick -track > /dev/null

# tier1 is the required bar for every change: everything compiles, vet is
# clean, every file is gofmt-formatted, the full suite passes with the race
# detector enabled, every measured number in EXPERIMENTS.md is what
# `xtbench -quick` prints (TestExperimentsDoc skips under -race, so it runs
# once more without), the co-simulation smoke sweep finds no divergence, the
# assembler, the decoders and the decode caches survive a short native fuzz
# pass, every per-package benchmark still runs, the trace subsystem's smoke
# checks hold, the campaign daemon survives a kill-and-resume with a
# byte-identical report, the distributed worker fleet survives a SIGKILLed
# worker likewise, and the paper-fidelity error table has not regressed.
tier1:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmt-check
	$(GO) test -race ./...
	$(GO) test -count=1 -run '^TestExperimentsDoc$$' ./cmd/xtbench
	$(MAKE) cli-smoke
	$(MAKE) fuzz-native-smoke
	$(MAKE) bench-smoke
	$(MAKE) campaign-smoke
	$(MAKE) campaign-chaos-smoke
	$(MAKE) fidelity-track

# xtbench runs the reproduction harness in smoke mode, one worker per CPU.
xtbench:
	$(GO) run ./cmd/xtbench -quick

clean:
	$(GO) clean ./...
