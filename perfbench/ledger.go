package main

// The traced run: the per-layer ledger. Host times come from the
// benchmark's own spans around calls into each layer's public functions;
// counts come from sim.Result, from obs.Tracer events passed through
// sim.RunObserved, from asapd's /metrics and from JobStatus timestamps.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/asapd/store"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obs"
	"repro/internal/pt"
	"repro/internal/pwc"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/walker"
	"repro/internal/workload"
)

const (
	// probeRefs is how many references each layer probe replays per
	// workload spec; probeCoAccesses is the co-runner stream length.
	probeRefs       = 200_000
	probeCoAccesses = 1_000_000
	// probeReps is how many times each probe is timed; the ledger reports
	// the median.
	probeReps = 3
	// ledgerServiceTime is the asapd session a grid's traced run drives for
	// the service-layer rows.
	ledgerServiceTime = 2 * time.Second
	// maxGapSamples caps the stored reference gaps of one traced run.
	maxGapSamples = 4_000_000
)

// The co-runner's machine-address window, as internal/sim places it: frames
// from 1<<30, 1<<22 frames (16 GiB) wide, seeded with the run seed ^ 0xc0.
const (
	coRunnerBase = mem.Frame(1) << 30
	coRunnerSpan = uint64(1) << 22
)

// Machine areas of the layer probes' own native process (disjoint, like the
// simulator's; only tags matter).
const (
	probePTBase   = mem.Frame(1) << 26
	probePTSpan   = uint64(1) << 22
	probeDataBase = mem.Frame(1) << 28
)

// ledger is the traced run of a workload. ref holds the cells' reference
// results, or nil when the ledger's own runner pass provides them; sr is
// the workload's asapd session, or nil for a grid, which then drives a short
// session for the service rows. builds are single-assembly build times.
func ledger(ctx context.Context, cfg config, cells []cell, ref []*sim.Result, builds []float64,
	sr *serviceRun, out *outcome) (*outcome, error) {
	got, err := runnerProbe(ctx, cfg, cells, out)
	if err != nil {
		return nil, err
	}
	if ref == nil {
		ref = got
		if out.digest, _, err = summarize(cells, ref); err != nil {
			return nil, err
		}
	}
	for i, c := range cells {
		out.check(sameResult(ref[i], got[i]), "%s: runner result differs from the reference", c.name())
	}
	if err := cellProbe(ctx, cfg, cells, ref, out); err != nil {
		return nil, err
	}
	out.add("sim.build_ms", "ms", median(builds))
	if err := layerProbe(cells, cfg.simSeed(), out); err != nil {
		return nil, err
	}
	if err := traceProbe(cfg, out); err != nil {
		return nil, err
	}
	if err := storeProbe(cfg, cells, ref, out); err != nil {
		return nil, err
	}
	if sr == nil {
		if sr, err = measureService(ctx, cfg, ledgerServiceTime); err != nil {
			return nil, err
		}
	}
	serviceRows(sr, out)
	for _, j := range sr.runs {
		out.attempted++
		if !j.ok() {
			out.failed++
			out.check(false, "service job seed %d failed: %v %s", j.seed, j.err, j.status.Error)
		}
	}
	return out, nil
}

// runnerProbe runs the cells once through a fresh runner while sampling its
// progress, then collects every cell a second time, which the runner's memo
// serves. Rows: runner.utilization, runner.memo_hit_us, runner.memo_hit_rate.
func runnerProbe(ctx context.Context, cfg config, cells []cell, out *outcome) ([]*sim.Result, error) {
	r := runner.New(cfg.workers)
	defer r.Close()
	stop, sampled := make(chan struct{}), make(chan struct{})
	var inFlight, samples float64
	go func() {
		defer close(sampled)
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				inFlight += float64(r.Progress().InFlight)
				samples++
			}
		}
	}()
	res, errs, _ := pass(ctx, cfg, r, cells)
	close(stop)
	<-sampled
	for i, c := range cells {
		out.attempted++
		if errs[i] != nil {
			out.failed++
			return nil, fmt.Errorf("%s: %w", c.name(), errs[i])
		}
		checkLaws(out, c, res[i])
	}
	hitUS := make([]float64, 0, len(cells))
	for i, c := range cells {
		t0 := time.Now()
		again, err := r.RunCtx(ctx, c.sc, c.p)
		hitUS = append(hitUS, float64(time.Since(t0).Nanoseconds())/1e3)
		out.check(err == nil && again == res[i], "%s: second collection was not served by the memo", c.name())
	}
	hits, misses := r.Stats()
	out.add("runner.utilization", "frac", ratio(inFlight, samples)/float64(cfg.workers))
	out.add("runner.memo_hit_us", "us", median(hitUS))
	out.add("runner.memo_hit_rate", "frac", ratio(float64(hits), float64(hits+misses)))
	return res, nil
}

// gapTap records the host time between consecutive references of a run.
type gapTap struct {
	last time.Time
	gaps *[]float64
}

func (t *gapTap) BeginProcess(int, workload.Spec, *workload.Layout, uint64) error { return nil }

func (t *gapTap) Ref(int, mem.VirtAddr) {
	now := time.Now()
	if !t.last.IsZero() && len(*t.gaps) < maxGapSamples {
		*t.gaps = append(*t.gaps, float64(now.Sub(t.last).Nanoseconds()))
	}
	t.last = now
}

// walkCounts are tracer-event counts over a run's measured walks.
type walkCounts struct {
	walks       uint64 // measured walk spans
	nativeSteps uint64 // native-dimension steps, PWC markers included
	memSteps    uint64 // steps served by memory
	steps       uint64 // steps that reached the cache hierarchy
	pwcLevels   uint64 // page-table levels of the probed walks
	pwcSkipped  uint64 // levels the PWC let those walks skip
}

// tableLevels is the depth of every page table the benchmark simulates.
const tableLevels = 4

func (w *walkCounts) add(o walkCounts) {
	w.walks += o.walks
	w.nativeSteps += o.nativeSteps
	w.memSteps += o.memSteps
	w.steps += o.steps
	w.pwcLevels += o.pwcLevels
	w.pwcSkipped += o.pwcSkipped
}

// argOf returns the event's argument named key (the zero Arg if absent).
func argOf(e obs.Event, key string) obs.Arg {
	for _, a := range e.Args {
		if a.Key == key {
			return a
		}
	}
	return obs.Arg{}
}

// countWalks attributes every step and PWC probe to the walk span that
// closes after it (the tracer emits a walk's span at its end) and keeps the
// measured walks' counts. A PWC probe that resumes the walk at level l let
// it skip tableLevels-l levels.
func countWalks(events []obs.Event) walkCounts {
	var total, cur walkCounts
	for _, e := range events {
		switch e.Name {
		case "pt.step":
			if argOf(e, "dim").Str == "native" {
				cur.nativeSteps++
			}
			served := argOf(e, "served").Str
			if served != "PWC" {
				cur.steps++
			}
			if served == "Mem" {
				cur.memSteps++
			}
		case "pwc.lookup":
			cur.pwcLevels += tableLevels
			cur.pwcSkipped += uint64(tableLevels - argOf(e, "resume_level").Int)
		case "walk":
			if argOf(e, "measured").Bool {
				cur.walks = 1
				total.add(cur)
			}
			cur = walkCounts{}
		}
	}
	return total
}

// cellProbe runs every cell three ways directly through sim — untraced,
// with a reference tap, and with a sample-everything event tracer — until
// the run's time is used, and checks that all three equal the reference
// results. Rows: sim.ref_ns_p50/p99, obs.trace_overhead_frac, the walker,
// PWC, TLB, core, mmu and co-runner counts.
func cellProbe(ctx context.Context, cfg config, cells []cell, ref []*sim.Result, out *outcome) error {
	var gaps []float64
	var plainNS, tracedNS float64
	var wc walkCounts
	for start, round := time.Now(), 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		for i, c := range cells {
			run := func(tap sim.RefTap, tr *obs.Tracer) (*sim.Result, time.Duration, error) {
				t0 := time.Now()
				r, err := watched(ctx, cfg.workload, c.name(), func(ctx context.Context) (*sim.Result, error) {
					return sim.RunObserved(ctx, c.sc, c.p, tap, tr)
				})
				return r, time.Since(t0), err
			}
			plain, dPlain, err := run(nil, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name(), err)
			}
			tapped, _, err := run(&gapTap{gaps: &gaps}, nil)
			if err != nil {
				return fmt.Errorf("%s tapped: %w", c.name(), err)
			}
			tr := obs.NewTracer(obs.TraceConfig{Sample: 1})
			traced, dTraced, err := run(nil, tr)
			if err != nil {
				return fmt.Errorf("%s traced: %w", c.name(), err)
			}
			plainNS += float64(dPlain.Nanoseconds())
			tracedNS += float64(dTraced.Nanoseconds())
			out.check(sameResult(ref[i], plain) && sameResult(ref[i], tapped) && sameResult(ref[i], traced),
				"%s: traced, tapped and untraced results differ", c.name())
			if round > 0 {
				continue
			}
			n := countWalks(tr.Events())
			var breakdown uint64
			for l := 1; l <= 5; l++ {
				breakdown += traced.Breakdown.Total(l)
			}
			out.check(n.walks == traced.Walks, "%s: %d measured walk spans for %d walks", c.name(), n.walks, traced.Walks)
			out.check(n.nativeSteps == breakdown, "%s: breakdown total %d but %d native steps traced",
				c.name(), breakdown, n.nativeSteps)
			wc.add(n)
		}
		runtime.GC() // drop this round's events before the next
	}
	p50, _ := percentile(gaps, 0.50)
	p99, ok := percentile(gaps, 0.99)
	if !ok {
		return fmt.Errorf("only %d reference gaps: sim.ref_ns_p99 needs %d beyond it", len(gaps), minBeyond)
	}
	out.note("samples sim.ref_ns=%d", len(gaps))
	out.add("sim.ref_ns_p50", "ns", p50)
	out.add("sim.ref_ns_p99", "ns", p99)
	out.add("obs.trace_overhead_frac", "frac", tracedNS/plainNS-1)
	out.add("walker.steps_per_walk", "count", ratio(float64(wc.steps), float64(wc.walks)))
	out.add("walker.served_mem_frac", "frac", ratio(float64(wc.memSteps), float64(wc.steps)))
	out.add("pwc.skip_frac", "frac", ratio(float64(wc.pwcSkipped), float64(wc.pwcLevels)))

	var missRatio, mpki, issued, covered, dropped, switches, accesses float64
	var rangeHit, asapCells, coPerRef, coCells float64
	for i, c := range cells {
		r := ref[i]
		missRatio += r.TLBMissRatio
		mpki += r.MPKI
		issued += float64(r.PrefetchIssued)
		covered += float64(r.PrefetchCovered)
		dropped += float64(r.MSHRDropped)
		switches += float64(r.Switches)
		accesses += float64(r.Accesses)
		if c.sc.ASAP.Enabled() {
			rangeHit += r.RangeHitRate
			asapCells++
		}
		if c.sc.Colocated {
			coPerRef += r.TotalCycles / c.p.CoAccessCycles / float64(r.Accesses)
			coCells++
		}
	}
	n := float64(len(cells))
	out.add("tlb.miss_ratio", "frac", missRatio/n)
	out.add("tlb.mpki", "1/kinstr", mpki/n)
	out.add("core.prefetch_coverage", "frac", ratio(covered, issued))
	out.add("core.range_hit_rate", "frac", ratio(rangeHit, asapCells))
	out.add("core.mshr_drop_frac", "frac", ratio(dropped, issued+dropped))
	out.add("mmu.switches_per_kref", "1/kref", 1000*ratio(switches, accesses))
	out.add("cache.corunner_accesses_per_ref", "count", ratio(coPerRef, coCells))
	return nil
}

// medianTime times f probeReps times and returns the median in nanoseconds;
// f does its own untimed preparation and returns the time of its timed part.
func medianTime(f func() time.Duration) float64 {
	ts := make([]float64, probeReps)
	for i := range ts {
		ts[i] = float64(f().Nanoseconds())
	}
	return median(ts)
}

// probeSpecs returns the distinct synthetic workload specs of the cells, in
// first-use order (a mix contributes its primary).
func probeSpecs(cells []cell) []workload.Spec {
	seen := map[string]bool{}
	var specs []workload.Spec
	for _, c := range cells {
		if c.sc.Trace == "" && !seen[c.sc.Workload.Name] {
			seen[c.sc.Workload.Name] = true
			specs = append(specs, c.sc.Workload)
		}
	}
	return specs
}

// walkSink keeps probe results alive so the compiler cannot drop the calls.
var walkSink pt.WalkResult

// layerProbe replays each workload spec's reference stream through the
// translation layers one at a time, on a baseline native process the
// benchmark assembles itself. Rows: workload.next_ns, tlb.lookup_ns,
// pt.walk_ns, pwc.lookup_ns, walker.walk_ns, mmu.translate_ns (self time:
// Scheme.Translate over the stream minus the TLB and walker time of the same
// stream), cache.access_ns and cache.served_mem_frac.
func layerProbe(cells []cell, seed uint64, out *outcome) error {
	var genNS, tlbNS, ptNS, pwcNS, walkNS, xlateNS, refsN, missN float64
	for _, spec := range probeSpecs(cells) {
		layout, err := workload.BuildLayout(spec)
		if err != nil {
			return err
		}
		salt := rng.Mix64(seed)
		table, err := pt.New(pt.Config{Levels: 4, LeafLevel: 1}, pt.NewScatterAlloc(probePTBase, probePTSpan, salt), false)
		if err != nil {
			return err
		}
		layout.Populate(table)
		frames := &workload.FrameMap{Base: probeDataBase, Span: max(8, mem.NextPow2(layout.TotalResident*5/4)),
			Contig8: spec.Contig8, Salt: salt ^ 2}
		frame := func(vpn uint64) uint64 { return uint64(frames.Frame(vpn)) }

		refs := make([]mem.VirtAddr, probeRefs)
		genNS += medianTime(func() time.Duration {
			gen := workload.NewGenerator(spec, layout, seed)
			t0 := time.Now()
			for i := range refs {
				refs[i] = gen.Next()
			}
			return time.Since(t0)
		})
		pfns := make([]uint64, len(refs))
		for i, va := range refs {
			pfns[i] = frame(va.VPN())
		}
		// Which references miss the TLB, and what their walks find.
		var misses []mem.VirtAddr
		var huge []bool
		var term []int
		tl := tlb.NewTwoLevel(false)
		for i, va := range refs {
			if !tl.LookupVA(va, pfns[i], nil) {
				w := table.Walk(va)
				misses, huge, term = append(misses, va), append(huge, w.Huge), append(term, w.TermLevel)
				tl.InsertVA(va, w.Huge, pfns[i], nil)
			}
		}
		refsN += float64(len(refs))
		missN += float64(len(misses))

		tlbNS += medianTime(func() time.Duration {
			tl := tlb.NewTwoLevel(false)
			k := 0
			t0 := time.Now()
			for i, va := range refs {
				if !tl.LookupVA(va, pfns[i], nil) {
					tl.InsertVA(va, huge[k], pfns[i], nil)
					k++
				}
			}
			return time.Since(t0)
		})
		ptNS += medianTime(func() time.Duration {
			t0 := time.Now()
			for _, va := range misses {
				walkSink = table.Walk(va)
			}
			return time.Since(t0)
		})
		// A PWC probe plus the fills of the interior levels the walk then
		// reads, as the walker makes them.
		pwcNS += medianTime(func() time.Duration {
			pw := pwc.New(pwc.DefaultConfig())
			t0 := time.Now()
			for k, va := range misses {
				for l := pw.Lookup(va, 4); l > term[k]; l-- {
					pw.Insert(va, l)
				}
			}
			return time.Since(t0)
		})
		walkNS += medianTime(func() time.Duration {
			w := &walker.Walker{H: cache.NewHierarchy(cache.DefaultConfig()), PWC: pwc.New(pwc.DefaultConfig())}
			var wr walker.Result
			var now int64
			t0 := time.Now()
			for _, va := range misses {
				w.Walk(now, table, va, &wr)
				now += int64(wr.Cycles)
			}
			return time.Since(t0)
		})
		var schemeErr error
		xlateNS += medianTime(func() time.Duration {
			s, err := mmu.New("asap", mmu.Config{Hier: cache.NewHierarchy(cache.DefaultConfig()),
				MSHR: cache.NewMSHRFile(10), PWC: pwc.DefaultConfig(), RangeRegisters: 16})
			if err != nil {
				schemeErr = err
				return 0
			}
			s.Attach(0, &mmu.Process{Table: table, Frame: frame})
			s.Boot(0)
			var wr walker.Result
			var now int64
			t0 := time.Now()
			for _, va := range refs {
				if s.Translate(now, va, &wr) {
					now += int64(wr.Cycles)
				}
			}
			return time.Since(t0)
		})
		if schemeErr != nil {
			return schemeErr
		}
	}
	out.add("workload.next_ns", "ns", genNS/refsN)
	out.add("tlb.lookup_ns", "ns", tlbNS/refsN)
	out.add("pt.walk_ns", "ns", ptNS/missN)
	out.add("pwc.lookup_ns", "ns", pwcNS/missN)
	out.add("walker.walk_ns", "ns", walkNS/missN)
	out.add("mmu.translate_ns", "ns", (xlateNS-tlbNS-walkNS)/refsN)

	co := workload.NewCoRunner(coRunnerBase.Addr(), coRunnerSpan*mem.PageSize, seed^0xc0)
	addrs := make([]mem.PhysAddr, probeCoAccesses)
	for i := range addrs {
		addrs[i] = co.Next()
	}
	var served [cache.NumServedBy]float64
	accessNS := medianTime(func() time.Duration {
		h := cache.NewHierarchy(cache.DefaultConfig())
		served = [cache.NumServedBy]float64{}
		t0 := time.Now()
		for _, a := range addrs {
			s, _ := h.Access(a)
			served[s]++
		}
		return time.Since(t0)
	})
	out.add("cache.access_ns", "ns", accessNS/float64(len(addrs)))
	out.add("cache.served_mem_frac", "frac", served[cache.ServedMem]/float64(len(addrs)))
	return nil
}

// traceProbe times decoding the checked-in capture and replaying it. Rows:
// trace.load_ms, trace.replay_ns_per_ref.
func traceProbe(cfg config, out *outcome) error {
	path := filepath.Join(cfg.root, tracePath)
	var tr *trace.Trace
	var loadErr error
	load := medianTime(func() time.Duration {
		t0 := time.Now()
		tr, loadErr = trace.LoadFile(path)
		return time.Since(t0)
	})
	if loadErr != nil {
		return loadErr
	}
	var n float64
	replay := medianTime(func() time.Duration {
		rp := tr.Replay()
		n = 0
		t0 := time.Now()
		for _, ok := rp.Next(); ok; _, ok = rp.Next() {
			n++
		}
		return time.Since(t0)
	})
	out.add("trace.load_ms", "ms", load/1e6)
	out.add("trace.replay_ns_per_ref", "ns", ratio(replay, n))
	return nil
}

// storeProbe writes every reference result to a fresh result store and
// reads it back, checking the round trip. Rows: store.put_ms, store.get_us.
func storeProbe(cfg config, cells []cell, ref []*sim.Result, out *outcome) error {
	dir, err := scratchDir(cfg, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, nil)
	if err != nil {
		return err
	}
	var putMS, getUS []float64
	for i, c := range cells {
		t0 := time.Now()
		if err := st.Put(sim.Key(c.sc, c.p), ref[i]); err != nil {
			return err
		}
		putMS = append(putMS, ms(time.Since(t0)))
	}
	for i, c := range cells {
		t0 := time.Now()
		got, ok := st.Get(sim.Key(c.sc, c.p))
		getUS = append(getUS, float64(time.Since(t0).Nanoseconds())/1e3)
		out.check(ok && sameResult(got, ref[i]), "%s: store round trip lost the result", c.name())
	}
	out.add("store.put_ms", "ms", median(putMS))
	out.add("store.get_us", "us", median(getUS))
	return nil
}

// serviceRows reports the asapd session from the jobs' timestamps and the
// service's own counters. Rows: asapd.submit_ms, asapd.queue_wait_ms,
// asapd.run_ms, asapd.poll_lag_ms, asapd.refused_frac, store.hit_rate.
func serviceRows(sr *serviceRun, out *outcome) {
	var submit, wait, run, lag []float64
	for _, j := range sr.runs {
		if !j.ok() || j.status.Started == nil || j.status.Finished == nil {
			continue
		}
		submit = append(submit, ms(j.submit))
		wait = append(wait, ms(j.status.Started.Sub(j.status.Submitted)))
		run = append(run, ms(j.status.Finished.Sub(*j.status.Started)))
		lag = append(lag, ms(j.observedDone.Sub(*j.status.Finished)))
	}
	out.add("asapd.submit_ms", "ms", median(submit))
	out.add("asapd.queue_wait_ms", "ms", median(wait))
	out.add("asapd.run_ms", "ms", median(run))
	out.add("asapd.poll_lag_ms", "ms", median(lag))
	out.add("asapd.refused_frac", "frac", ratio(float64(sr.refused), float64(sr.posts)))
	out.add("store.hit_rate", "frac", sr.metrics.StoreHitRate)
}
