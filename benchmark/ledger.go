package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"xt910/internal/bench"
	"xt910/internal/core"
	"xt910/internal/cosim"
	"xt910/internal/perf"
	"xt910/internal/sched"
	"xt910/internal/trace"
)

// The layer ledger is the second half of a traced run: after the workload's
// own repetition has been recorded, every layer is driven alone, from
// outside, on this workload's inputs — the same programs on the emulator
// only, on the core only, with each host-side toggle off, under the checker
// — so one run yields one record per layer. Where the repetition itself
// already is the probe (the fleet's campaigns, the full tables), its spans
// are used and the probe is not repeated.

// ledgerInputs names what the ledger probes for one workload.
type ledgerInputs struct {
	e        env
	progs    []kernel   // for the asm, isa, emu, core and trace probes
	fuzz     []fuzzCase // for the cosim and sched probes
	locked   []kernel   // for cosim.check_overhead_ratio (nil: the base-mode fuzz programs)
	campaign *fleetSet  // campaign-fleet's own fleets and direct reference (nil: a small fleet is built)
	tables   *tableSet  // paper-tables' own plan and reference tables (nil: the cheap experiments)
}

func (in ledgerInputs) withDefaults(e env) ledgerInputs {
	in.e = e
	if in.fuzz == nil {
		in.fuzz = fuzzCases(e.seed, e.sz.ledgerFuzzPerMode)
	}
	return in
}

type ledger struct {
	sc  scope
	tr  *tracer
	in  ledgerInputs
	m   map[string]float64
	err []error // failed checks; the traced run reports them as failed ops

	attempted int
}

// check counts one verified probe.
func (lg *ledger) check(err error) {
	lg.attempted++
	if err != nil {
		lg.err = append(lg.err, err)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runLedger drives every section and fills in the per-layer metrics.
func runLedger(ctx context.Context, tr *tracer, in ledgerInputs) *ledger {
	lg := &ledger{tr: tr, in: in, m: make(map[string]float64)}
	lg.sc = tr.root(repLedger).begin("host", "ledger")
	defer lg.sc.end(1)
	lg.programs(ctx)
	lg.cosim(ctx)
	lg.bench(ctx)
	lg.sched(ctx)
	lg.campaign(ctx)
	return lg
}

// toggles are the host-only Config switches; each must leave every
// simulated count of the default run unchanged.
var toggles = []struct {
	name string
	off  func(*core.Config)
}{
	{"ff_off", func(c *core.Config) { c.FastForward = false }},
	{"superblock_off", func(c *core.Config) { c.PredecodeSuperblock = false }},
	{"predecode_off", func(c *core.Config) { c.PredecodeCache = false; c.PredecodeSuperblock = false }},
}

// programs probes asm, isa, emu, core and trace on the workload's programs.
func (lg *ledger) programs(ctx context.Context) {
	sc := lg.sc.begin("host", "ledger.programs")
	defer sc.end(uint64(len(lg.in.progs)))
	var (
		st                      core.Stats // summed over the default runs
		cpi                     trace.CPIStack
		emuMallocs, coreMallocs uint64
		words                   int
	)
	for _, k := range lg.in.progs {
		words += len(k.prog.Data) / 4
	}
	passes := 1
	if words > 0 && words < lg.in.e.sz.minDecodes {
		passes = (lg.in.e.sz.minDecodes + words - 1) / words
	}
	for _, k := range lg.in.progs {
		_, err := assemble(sc, k.src)
		lg.check(err)
		decodeImage(sc, k.prog, passes)

		m0 := mallocs()
		m, err := runEmu(ctx, sc, "emu.Run.alone", k.prog)
		emuMallocs += mallocs() - m0
		if err == nil && (m.Instret != k.instret || m.ExitCode != k.exit) {
			err = fmt.Errorf("%s: emu run does not repeat", k.name)
		}
		lg.check(err)

		c := newCore(sc, core.XT910Config(), k.prog)
		m0 = mallocs()
		err = runCore(ctx, sc, "core.Run.alone", c)
		coreMallocs += mallocs() - m0
		if err == nil {
			err = k.checkAgainstGolden(c)
		}
		lg.check(err)
		def := c.Stats
		st.Cycles += def.Cycles
		st.Retired += def.Retired
		st.PredecodeHits += def.PredecodeHits
		st.PredecodeMisses += def.PredecodeMisses
		st.SuperblockHits += def.SuperblockHits
		st.BrMispredicts += def.BrMispredicts
		st.LoadMisses += def.LoadMisses

		for _, tg := range toggles {
			cfg := core.XT910Config()
			tg.off(&cfg)
			c := newCore(sc, cfg, k.prog)
			err := runCore(ctx, sc, "core.Run."+tg.name, c)
			if err == nil && (c.Stats.Cycles != def.Cycles || c.Stats.Retired != def.Retired) {
				err = fmt.Errorf("%s: %s moved simulated counts (%d/%d cycles)", k.name, tg.name, c.Stats.Cycles, def.Cycles)
			}
			lg.check(err)
		}

		c = newCore(sc, core.XT910Config(), k.prog)
		err = stepCore(ctx, sc, "core.Step", c)
		if err == nil && c.Stats.Cycles != def.Cycles {
			err = fmt.Errorf("%s: Step loop took %d cycles, Run %d", k.name, c.Stats.Cycles, def.Cycles)
		}
		lg.check(err)

		c = newCore(sc, core.XT910Config(), k.prog)
		c.AttachTracer(attachedTracer())
		err = runCore(ctx, sc, "core.Run.traced", c)
		if err == nil {
			err = c.Tracer().CPI().Check(c.Stats.Cycles)
		}
		lg.check(err)
		for cl, n := range c.Tracer().CPI().Buckets {
			cpi.Buckets[cl] += n
		}
	}

	tr, m := lg.tr, lg.m
	m["asm.assemble_us_per_prog"] = tr.named("asm.Assemble").perCall(time.Microsecond)
	dec := tr.named("isa.Decode")
	m["isa.decode_ns_per_inst"] = ratio(float64(dec.dur.Nanoseconds()), float64(dec.n))

	em := tr.named("emu.Run.alone")
	m["emu.mips"] = em.rate() / 1e6
	m["emu.allocs_per_kinstr"] = ratio(float64(emuMallocs)*1000, float64(em.n))

	run := tr.named("core.Run.alone")
	m["core.run_mips"] = run.rate() / 1e6
	m["core.run_ns_per_simcycle"] = ratio(float64(run.dur.Nanoseconds()), float64(st.Cycles))
	step := tr.named("core.Step")
	m["core.step_ns_per_simcycle"] = ratio(float64(step.dur.Nanoseconds()), float64(step.n))
	m["core.new_us"] = tr.named("core.New").perCall(time.Microsecond)
	m["core.allocs_per_kinstr"] = ratio(float64(coreMallocs)*1000, float64(run.n))
	for _, tg := range toggles {
		m["core."+tg.name+"_ratio"] = ratio(tr.named("core.Run."+tg.name).seconds(), run.seconds())
	}
	m["core.sim_cycles"] = float64(st.Cycles)
	m["core.sim_ipc"] = st.IPC()
	m["core.predecode_hit_ratio"] = ratio(float64(st.PredecodeHits), float64(st.PredecodeHits+st.PredecodeMisses))
	kinstr := float64(st.Retired) / 1000
	m["core.superblock_hits_per_kinstr"] = ratio(float64(st.SuperblockHits), kinstr)
	m["core.mispredicts_per_kinstr"] = ratio(float64(st.BrMispredicts), kinstr)
	m["core.load_misses_per_kinstr"] = ratio(float64(st.LoadMisses), kinstr)

	m["trace.attached_ratio"] = ratio(tr.named("core.Run.traced").seconds(), run.seconds())
	for cl := trace.CycleClass(0); cl < trace.NumCycleClasses; cl++ {
		m["trace.cpi_"+cl.String()] = cpi.Fraction(cl)
	}
}

// cosim splits fuzz seeds into the phases cosim.FuzzWatched runs as one —
// generate, assemble, session set-up, locked run — and measures what the
// checker costs over its two models run alone.
func (lg *ledger) cosim(ctx context.Context) {
	sc := lg.sc.begin("host", "ledger.cosim")
	defer sc.end(uint64(len(lg.in.fuzz)))
	var cycles uint64
	var divergences, timeouts int
	locked := lg.in.locked
	for _, fc := range lg.in.fuzz {
		seed := sc.begin("host", "cosim.seed")
		k, opts, err := fuzzProgram(seed, fc)
		if err != nil {
			seed.end(0)
			lg.check(err)
			continue
		}
		s := seed.begin("cosim", "cosim.NewSession")
		sess := cosim.NewSession(k.prog, opts)
		s.end(1)
		s = seed.begin("cosim", "cosim.run")
		for !sess.Done() && ctx.Err() == nil {
			for i := 0; i < 1024 && !sess.Done(); i++ {
				sess.Step()
			}
		}
		res := sess.Finish()
		s.end(res.Commits)
		seed.end(1)
		cycles += res.Cycles
		switch {
		case ctx.Err() != nil:
			timeouts++
			err = ctx.Err()
		case res.Diverged:
			divergences++
			err = fmt.Errorf("%s: diverged (%s)", fc, res.Kind)
		}
		lg.check(err)
		if fc.modes == "" && lg.in.locked == nil {
			if err := k.golden(ctx, sc); err != nil {
				lg.check(err)
				continue
			}
			locked = append(locked, k)
		}
	}
	for _, k := range locked {
		_, _, err := lockstep(ctx, sc, "cosim.locked", k)
		lg.check(err)
		c := newCore(sc, core.XT910Config(), k.prog)
		lg.check(stepCore(ctx, sc, "core.Step.locked", c))
		_, err = runEmu(ctx, sc, "emu.Run.locked", k.prog)
		lg.check(err)
	}

	tr, m := lg.tr, lg.m
	run := tr.named("cosim.run")
	m["cosim.commits_per_s"] = run.rate()
	m["cosim.gen_us_per_seed"] = tr.named("cosim.GenerateSource").perCall(time.Microsecond)
	m["cosim.session_new_us"] = tr.named("cosim.NewSession").perCall(time.Microsecond)
	m["cosim.run_us_per_seed"] = run.perCall(time.Microsecond)
	lock := tr.named("cosim.locked").seconds()
	alone := tr.named("core.Step.locked").seconds() + tr.named("emu.Run.locked").seconds()
	m["cosim.check_overhead_ratio"] = ratio(lock, alone)
	m["cosim.self_s"] = lock - alone
	seeds := tr.durations("cosim.seed")
	m["cosim.seed_p50_ms"] = percentile(seeds, 0.50).Seconds() * 1e3
	m["cosim.seed_p95_ms"] = percentile(seeds, 0.95).Seconds() * 1e3
	m["cosim.seed_samples"] = float64(len(seeds))
	m["cosim.sim_cycles"] = float64(cycles)
	m["cosim.divergences"] = float64(divergences)
	m["cosim.timeouts"] = float64(timeouts)
}

// fuzzProgram generates and assembles the program a fuzz case denotes and
// returns it with the session options FuzzContext would build: the case's
// modes and, in irq mode, the generated schedule.
func fuzzProgram(sc scope, fc fuzzCase) (kernel, cosim.Options, error) {
	opts, err := fc.options()
	if err != nil {
		return kernel{}, opts, err
	}
	s := sc.begin("cosim", "cosim.GenerateSource")
	src, irq := cosim.GenerateSource(fc.seed, 0, opts)
	s.end(1)
	if opts.Modes.IRQ {
		opts.IRQSchedule = irq
	}
	k := kernel{name: fc.String(), src: src, fuzz: true}
	if k.prog, err = assemble(sc, src); err != nil {
		return k, opts, fmt.Errorf("%s: %w", fc, err)
	}
	return k, opts, nil
}

// percentile is the nearest-rank percentile of ds (0 for no samples).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// bench runs the tables at one job and at two, and the CPI-stack option on
// and off; on paper-tables the two-job run is the traced repetition itself.
func (lg *ledger) bench(ctx context.Context) {
	sc := lg.sc.begin("host", "ledger.bench")
	defer sc.end(1)
	ts := lg.in.tables
	if ts == nil {
		ts = &tableSet{ids: lg.in.e.sz.cheap(), quick: true, tables: make(map[string]string)}
	}
	run := func(name string, o bench.Options) []sched.Result {
		rs := runExperiments(ctx, sc, name, ts.ids, o)
		for _, op := range ts.check(rs) {
			lg.check(op.err)
		}
		return rs
	}
	j1 := run("bench.RunAll.j1", bench.Options{Quick: ts.quick, Jobs: 1})
	if !lg.tr.has("bench.RunAll.j2") {
		run("bench.RunAll.j2", bench.Options{Quick: ts.quick, Jobs: 2})
	}
	// the CPI-stack tables carry an extra column, so they are checked for
	// errors only, not against the plain tables
	for _, on := range []bool{false, true} {
		name := "bench.cpistack.off"
		if on {
			name = "bench.cpistack.on"
		}
		rs := runExperiments(ctx, sc, name, lg.in.e.sz.cheap(), bench.Options{Quick: true, Jobs: 2, CPIStack: on})
		lg.check(sched.FirstError(rs))
	}

	tr, m := lg.tr, lg.m
	m["bench.tables_wall_j1_s"] = tr.named("bench.RunAll.j1").seconds()
	m["bench.slowest_exp_s"] = tr.named("bench.RunAll.j1.exp").max.Seconds()
	m["bench.cpistack_ratio"] = ratio(tr.named("bench.cpistack.on").seconds(), tr.named("bench.cpistack.off").seconds())
	var errSum float64
	var errN int
	for _, r := range j1 {
		res, ok := r.Value.(*perf.Result)
		if !ok {
			continue
		}
		for _, row := range res.Rows {
			if res.ID == "fig17" && row.Label == "XT-910 / U74 ratio" {
				m["bench.fig17_ratio"] = row.Measured
			}
			if row.Paper > 0 && row.Measured > 0 {
				errSum += math.Abs(math.Log(row.Measured / row.Paper))
				errN++
			}
		}
	}
	m["bench.paper_err_mean"] = ratio(errSum, float64(errN))
	m["bench.paper_rows"] = float64(errN)
}

// sched measures the pool's own cost on jobs that do nothing, and what a
// second worker buys on the two pools the workloads use.
func (lg *ledger) sched(ctx context.Context) {
	sc := lg.sc.begin("host", "ledger.sched")
	defer sc.end(1)
	jobs := make([]sched.Job, lg.in.e.sz.noopJobs)
	for i := range jobs {
		jobs[i] = sched.Job{ID: "noop", Run: func(context.Context) (any, error) { return nil, nil }}
	}
	s := sc.begin("sched", "sched.Run.noop")
	rs := sched.Run(ctx, jobs, sched.Options{Workers: 2})
	s.end(uint64(len(jobs)))
	lg.check(sched.FirstError(rs))

	var seeds []int64
	for _, fc := range lg.in.fuzz {
		if fc.modes == "" {
			seeds = append(seeds, fc.seed)
		}
	}
	for _, j := range []int{1, 2} {
		s := sc.begin("cosim", fmt.Sprintf("cosim.RunSeeds.j%d", j))
		frs, err := cosim.RunSeeds(ctx, seeds, 0, cosim.Options{SeedTimeout: seedTimeout}, j)
		s.end(uint64(len(seeds)))
		for _, fr := range frs {
			if err == nil {
				err = checkFuzz(fr)
			}
		}
		lg.check(err)
	}

	tr, m := lg.tr, lg.m
	m["sched.dispatch_us_per_job"] = ratio(tr.named("sched.Run.noop").seconds()*1e6, float64(len(jobs)))
	j1 := tr.named("cosim.RunSeeds.j1").seconds() + tr.named("bench.RunAll.j1").seconds()
	j2 := tr.named("cosim.RunSeeds.j2").seconds() + tr.named("bench.RunAll.j2").seconds()
	m["sched.speedup_j2"] = ratio(j1, j2)
}

// campaign runs the same fuzz spec directly, on the local executor, and on
// one and two HTTP workers, then a campaign of items that simulate nothing,
// then a restart on the finished state directory.
func (lg *ledger) campaign(ctx context.Context) {
	sc := lg.sc.begin("host", "ledger.campaign")
	defer sc.end(1)
	fl := lg.in.campaign
	if fl == nil {
		e := lg.in.e
		e.sz.campaignN = e.sz.ledgerCampaignN
		inst, err := setupFleet(ctx, sc, e)
		if err != nil {
			lg.check(err)
			return
		}
		fl = inst.(*fleetSet)
		defer func() { lg.check(fl.close()) }()
	}
	if !lg.tr.has("campaign.run.local") {
		lg.check(fl.run(ctx, sc, fl.local, "local", 0).err)
	}
	lg.check(fl.run(ctx, sc, fl.pure, "w1", 1).err)
	if !lg.tr.has("campaign.run.w2") {
		lg.check(fl.run(ctx, sc, fl.pure, "w2", 2).err)
	}
	lg.check(fl.local.run(ctx, sc, "null", nullSpec(lg.in.e.sz.nullItems), 0, nil))
	lg.check(fl.local.reopen(sc))

	tr, m := lg.tr, lg.m
	direct := tr.named("campaign.run.direct").rate()
	m["campaign.direct_items_per_s"] = direct
	for _, kind := range []string{"local", "w1", "w2"} {
		m["campaign."+kind+"_items_per_s"] = tr.named("campaign.run." + kind).rate()
	}
	m["campaign.efficiency_local"] = ratio(m["campaign.local_items_per_s"], direct)
	m["campaign.efficiency_w2"] = ratio(m["campaign.w2_items_per_s"], direct)
	null := tr.named("campaign.run.null")
	m["campaign.null_item_us"] = ratio(null.seconds()*1e6, float64(null.n))
	m["campaign.submit_ms"] = tr.named("campaign.Submit").perCall(time.Millisecond)
	m["campaign.report_ms"] = tr.named("campaign.Report").perCall(time.Millisecond)
	m["campaign.resume_ms"] = tr.named("campaign.resume").perCall(time.Millisecond)
	http := tr.durations("campaign.http")
	m["campaign.http_requests"] = float64(len(http))
	m["campaign.http_p50_ms"] = percentile(http, 0.50).Seconds() * 1e3
	m["campaign.http_p95_ms"] = percentile(http, 0.95).Seconds() * 1e3
	m["campaign.lease_conflicts"] = float64(tr.named("campaign.http.conflict").count)
	m["campaign.journal_bytes"] = float64(tr.named("campaign.journal").n)
}
