package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The measurement window of every benchmark cell. It is far shorter than the
// paper protocol so that one run completes hundreds of cells, which the
// op_ms percentiles need; the simulated numbers are not meant to reproduce
// the paper's figures.
const (
	warmupWalks  = 2000
	measureWalks = 2000
)

// setupReps is how many times a run builds its assemblies from an empty build
// cache; setup_s is the median.
const setupReps = 7

// cellLimit bounds one simulation's wall time. The context deadline stops a
// run that polls it; the watchdog, a little later, ends the whole process for
// a run that does not (a co-runner loop that never reaches a context check).
const (
	cellLimit     = 60 * time.Second
	watchdogGrace = 5 * time.Second
)

// gridWorkloads are the simulated applications of both grids: two key-value
// servers with large heaps (memcached, redis) and a small-footprint PARSEC
// kernel (canneal).
var gridWorkloads = []string{"mc80", "redis", "canneal"}

var (
	nativeASAP = sim.ASAPConfig{Native: core.Config{P1: true, P2: true}}
	virtASAP   = sim.ASAPConfig{Guest: core.Config{P1: true, P2: true}, Host: core.Config{P1: true, P2: true}}
)

// cell is one simulation the benchmark asks for.
type cell struct {
	sc sim.Scenario
	p  sim.Params
}

// name labels the cell in checks and digests; it extends Scenario.Name with
// the process-scheduling parameters the mix cells vary.
func (c cell) name() string {
	n := c.sc.Name()
	if c.p.Processes > 1 {
		n += fmt.Sprintf("/procs=%d/flush=%v", c.p.Processes, c.p.FlushOnSwitch)
	}
	return n
}

func baseParams(seed uint64) sim.Params {
	p := sim.DefaultParams()
	p.WarmupWalks, p.MeasureWalks = warmupWalks, measureWalks
	p.Seed = seed
	return p
}

func mustSpec(name string) workload.Spec {
	spec, ok := workload.ByName(name)
	if !ok {
		panic("perfbench: unknown workload " + name)
	}
	return spec
}

// translationCells returns, for each grid workload, the native and the
// virtualized cell, each as baseline and with ASAP prefetching: twelve cells
// over twelve distinct assemblies, which the simulator's build cache holds
// at once.
func translationCells(seed uint64, colocated bool) []cell {
	p := baseParams(seed)
	var cells []cell
	for _, name := range gridWorkloads {
		spec := mustSpec(name)
		for _, virt := range []bool{false, true} {
			for _, asap := range []bool{false, true} {
				sc := sim.Scenario{Workload: spec, Virtualized: virt, Colocated: colocated}
				switch {
				case asap && virt:
					sc.ASAP = virtASAP
				case asap:
					sc.ASAP = nativeASAP
				}
				cells = append(cells, cell{sc: sc, p: p})
			}
		}
	}
	return cells
}

// coloCells is the colo workload: every translation cell with the SMT
// co-runner.
func coloCells(seed uint64) []cell { return translationCells(seed, true) }

// isolatedCells is the isolated workload: the translation cells without
// colocation, the two rival schemes on memcached, and one 4-process mix under
// each context-switch policy. The extra cells reuse the grid's assemblies.
func isolatedCells(seed uint64) []cell {
	cells := translationCells(seed, false)
	p := baseParams(seed)
	mc80 := mustSpec("mc80")
	for _, scheme := range []string{"victima", "revelator"} {
		cells = append(cells, cell{sc: sim.Scenario{Workload: mc80, Scheme: scheme}, p: p})
	}
	for _, flush := range []bool{true, false} {
		mp := p
		mp.Processes, mp.FlushOnSwitch = 4, flush
		cells = append(cells, cell{sc: sim.Scenario{Workload: mc80, Mix: "redis,canneal", ASAP: nativeASAP}, p: mp})
	}
	return cells
}

// assemblies returns one minimal-window cell per distinct assembly the cells
// need: colocation and rival schemes share the plain native assembly, and a
// mix needs each member's native assembly.
func assemblies(cells []cell) ([]cell, error) {
	seen := map[string]bool{}
	var out []cell
	add := func(sc sim.Scenario, p sim.Params) {
		sc.Colocated, sc.Scheme, sc.Mix = false, "", ""
		p.Processes, p.FlushOnSwitch = 1, false
		p.WarmupWalks, p.MeasureWalks = 0, 1
		if k := sc.Name(); !seen[k] {
			seen[k] = true
			out = append(out, cell{sc: sc, p: p})
		}
	}
	for _, c := range cells {
		if c.p.Processes <= 1 {
			add(c.sc, c.p)
			continue
		}
		mix, err := workload.MixFor(c.sc.Workload, c.sc.Mix, c.p.Processes)
		if err != nil {
			return nil, err
		}
		for _, spec := range mix.Specs {
			sc := c.sc
			sc.Workload = spec
			add(sc, c.p)
		}
	}
	return out, nil
}

// measureSetup builds every assembly from an empty build cache setupReps
// times, returning the median total in seconds and every single build's
// milliseconds. It leaves the cache holding exactly these assemblies, so the
// measured passes that follow pay no build.
func measureSetup(ctx context.Context, cfg config, asm []cell) (float64, []float64, error) {
	var totals, builds []float64
	for rep := 0; rep < setupReps; rep++ {
		sim.ResetBuildCache()
		runtime.GC() // collect the dropped assemblies outside the timed region
		t0 := time.Now()
		for _, a := range asm {
			t := time.Now()
			if _, err := watched(ctx, cfg.workload, "build "+a.name(), func(ctx context.Context) (*sim.Result, error) {
				return sim.RunCtx(ctx, a.sc, a.p)
			}); err != nil {
				return 0, nil, fmt.Errorf("build %s: %w", a.name(), err)
			}
			builds = append(builds, ms(time.Since(t)))
		}
		totals = append(totals, time.Since(t0).Seconds())
	}
	return median(totals), builds, nil
}

// watched runs f under the cell deadline and the process watchdog: a run
// still going watchdogGrace after its deadline ends the process with exit
// code 3, naming the workload and the operation, instead of hanging the
// benchmark.
func watched[T any](ctx context.Context, workloadName, what string, f func(context.Context) (T, error)) (T, error) {
	ctx, cancel := context.WithTimeout(ctx, cellLimit)
	defer cancel()
	dog := time.AfterFunc(cellLimit+watchdogGrace, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: workload %s: %s still running after %v\n",
			workloadName, what, cellLimit+watchdogGrace)
		os.Exit(3)
	})
	defer dog.Stop()
	return f(ctx)
}

// closedLoop runs op(0..n-1) from clients goroutines, each taking the next
// index only after its previous op returned, and returns every op's wall
// time.
func closedLoop(n, clients int, op func(i int)) []time.Duration {
	durs := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				op(i)
				durs[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return durs
}

// pass runs every cell once through r from cfg.workers closed-loop clients.
func pass(ctx context.Context, cfg config, r *runner.Runner, cells []cell) ([]*sim.Result, []error, []time.Duration) {
	res := make([]*sim.Result, len(cells))
	errs := make([]error, len(cells))
	durs := closedLoop(len(cells), cfg.workers, func(i int) {
		c := cells[i]
		res[i], errs[i] = watched(ctx, cfg.workload, c.name(), func(ctx context.Context) (*sim.Result, error) {
			return r.RunCtx(ctx, c.sc, c.p)
		})
	})
	return res, errs, durs
}

// sameResult reports whether two results are identical in every field,
// comparing their canonical JSON encodings (which cover the walk breakdown).
func sameResult(a, b *sim.Result) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

// checkLaws applies the model invariants every result must satisfy.
func checkLaws(o *outcome, c cell, r *sim.Result) {
	o.check(r.Accesses > 0 && r.Walks > 0, "%s: empty measurement window", c.name())
	o.check(r.PrefetchCovered <= r.PrefetchIssued, "%s: %d prefetches covered but only %d issued",
		c.name(), r.PrefetchCovered, r.PrefetchIssued)
	if c.p.Processes > 1 && !c.p.FlushOnSwitch {
		o.check(r.ShootdownFlushes == 0, "%s: %d TLB flushes under ASID retention", c.name(), r.ShootdownFlushes)
	}
}

// runGrid measures a grid workload: set-up, an untimed warm-up pass, then
// fresh-runner passes over the cells until the run's time is used, checking
// every result against the warm-up pass. ops_per_s and ns_per_ref are
// medians over the timed passes. With tracing it hands over to the per-layer
// ledger instead.
func runGrid(ctx context.Context, cfg config, cells []cell) (*outcome, error) {
	out := &outcome{paramsDigest: report.Digest(cells[0].p)}
	asm, err := assemblies(cells)
	if err != nil {
		return nil, err
	}
	setup, builds, err := measureSetup(ctx, cfg, asm)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return ledger(ctx, cfg, cells, nil, builds, nil, out)
	}

	// The warm-up pass fills the host caches and the heap and gives the
	// reference results; it is not timed.
	r := runner.New(cfg.workers)
	first, errs, _ := pass(ctx, cfg, r, cells)
	r.Close()
	for i, c := range cells {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", c.name(), errs[i])
		}
		checkLaws(out, c, first[i])
	}

	var opMS, passRate, passNSPerRef []float64
	passes := 0
	for start := time.Now(); passes == 0 || time.Since(start) < cfg.seconds; passes++ {
		// A fresh runner per pass: its memo would otherwise serve every
		// later pass without simulating.
		r := runner.New(cfg.workers)
		t0 := time.Now()
		res, errs, durs := pass(ctx, cfg, r, cells)
		wall := time.Since(t0)
		r.Close()
		var hostNS, refs float64
		for i, c := range cells {
			out.attempted++
			if errs[i] != nil {
				out.failed++
				out.check(false, "%s: %v", c.name(), errs[i])
				continue
			}
			opMS = append(opMS, ms(durs[i]))
			hostNS += float64(durs[i].Nanoseconds())
			refs += float64(res[i].Accesses)
			out.check(sameResult(first[i], res[i]), "%s: result differs between the warm-up pass and pass %d", c.name(), passes+1)
		}
		passRate = append(passRate, float64(len(cells))/wall.Seconds())
		passNSPerRef = append(passNSPerRef, hostNS/refs)
	}

	var walkLat float64
	if out.digest, walkLat, err = summarize(cells, first); err != nil {
		return nil, err
	}

	n := len(opMS)
	p50, _ := percentile(opMS, 0.50)
	p90, ok := percentile(opMS, 0.90)
	if !ok {
		return nil, fmt.Errorf("only %d cell samples: op_ms_p90 needs %d beyond it; raise --seconds", n, minBeyond)
	}
	out.note("samples op_ms=%d passes=%d cells_per_pass=%d assemblies=%d", n, passes, len(cells), len(asm))
	out.add("ops_per_s", "1/s", median(passRate))
	out.add("op_ms_p50", "ms", p50)
	out.add("op_ms_p90", "ms", p90)
	out.add("ns_per_ref", "ns", median(passNSPerRef))
	out.add("setup_s", "s", setup)
	out.add("peak_rss_mb", "MB", peakRSSMB())
	out.add("ok_frac", "frac", okFrac(out.attempted, out.failed, 0))
	out.add("sim_walk_cycles", "cycles", walkLat)
	return out, nil
}

// summarize returns the digest of the cells' results and their mean
// simulated walk latency.
func summarize(cells []cell, res []*sim.Result) (string, float64, error) {
	var d digest
	var walkLat float64
	for i, c := range cells {
		if err := d.add(c.name(), res[i]); err != nil {
			return "", 0, err
		}
		walkLat += res[i].AvgWalkLat
	}
	return d.String(), walkLat / float64(len(cells)), nil
}
