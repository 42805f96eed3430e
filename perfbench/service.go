package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asapd"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tracePath is the checked-in capture every service job replays.
const tracePath = "internal/exp/testdata/canneal.trc.gz"

// freshShare is the seeded share of service jobs that carry a never-seen
// seed and so simulate and write the store; the rest resubmit one of the
// client's earlier jobs and are served from the store. With one job in four
// fresh, the median falls well inside the store-hit latency mode and the
// 90th percentile well inside the simulate mode, away from the boundary.
const freshShare = 0.25

// pollInterval is how often a client polls a submitted job (WaitJob).
const pollInterval = 2 * time.Millisecond

// digestJobs is how many of each client's first fresh jobs make up the
// service digest and sim_walk_cycles: a fixed, seed-determined set, unlike
// the time-dependent number of jobs a run completes.
const digestJobs = 3

// serviceSetupReps is how many times a run starts asapd; setup_s is the
// median. A start takes well under a millisecond, so it takes more
// repetitions than a grid's set-up for a steady median.
const serviceSetupReps = 41

// jobSpec is the service job for one seed: three short non-colocated cells
// and one replay of the checked-in canneal capture, decoded at submit.
func jobSpec(root string, seed uint64) asapd.JobSpec {
	return asapd.JobSpec{
		Cells: []asapd.CellSpec{
			{Workload: "mc80"},
			{Workload: "redis", ASAP: "p1+p2"},
			{Workload: "canneal", Virtualized: true},
			{Trace: filepath.Join(root, tracePath)},
		},
		Params: asapd.ParamSpec{WarmupWalks: warmupWalks, MeasureWalks: measureWalks, Seed: seed},
	}
}

// jobCells are the cells asapd plans for jobSpec(seed), built directly: the
// reference a service result must equal.
func jobCells(tr *trace.Trace, seed uint64) []cell {
	p := baseParams(seed)
	return []cell{
		{sc: sim.Scenario{Workload: mustSpec("mc80")}, p: p},
		{sc: sim.Scenario{Workload: mustSpec("redis"), ASAP: nativeASAP}, p: p},
		{sc: sim.Scenario{Workload: mustSpec("canneal"), Virtualized: true}, p: p},
		{sc: sim.UseTrace(tr), p: p},
	}
}

// refusalCounter counts job submissions and the 429/503 refusals among them;
// asapd.Client retries refusals itself, so only the transport sees them.
type refusalCounter struct {
	next            http.RoundTripper
	posts, refusals atomic.Int64
}

func (rc *refusalCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rc.next.RoundTrip(req)
	if req.Method != http.MethodPost {
		return resp, err
	}
	rc.posts.Add(1)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		rc.refusals.Add(1)
	}
	return resp, err
}

// session is one in-process asapd serving loopback HTTP.
type session struct {
	svc       *asapd.Service
	srv       *http.Server
	served    chan struct{}
	transport *http.Transport
	counter   *refusalCounter
	client    *asapd.Client
	base      string
}

// startSession starts asapd over the store in dir and returns once the first
// /healthz answers, with the time that took: set-up as a user sees it,
// including the store's recovery sweep.
func startSession(ctx context.Context, dir string, workers int, seed uint64) (*session, time.Duration, error) {
	t0 := time.Now()
	svc, err := asapd.New(asapd.Config{Workers: workers, JobWorkers: workers, StoreDir: dir})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(ctx) // the listen error is the one to report
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	s := &session{
		svc:       svc,
		srv:       &http.Server{Handler: svc.Handler()},
		served:    make(chan struct{}),
		transport: &http.Transport{MaxIdleConnsPerHost: 4},
		base:      "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	s.counter = &refusalCounter{next: s.transport}
	hc := &http.Client{Transport: s.counter}
	s.client = &asapd.Client{Base: s.base, HTTPClient: hc, Seed: seed, MaxAttempts: 20,
		BaseDelay: 5 * time.Millisecond, MaxDelay: 200 * time.Millisecond}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		if err != nil {
			return nil, 0, errors.Join(err, s.stop(ctx))
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > cellLimit {
			return nil, 0, errors.Join(fmt.Errorf("asapd never became healthy"), s.stop(ctx))
		}
		time.Sleep(time.Millisecond)
	}
	return s, time.Since(t0), nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (s *session) stop(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.served
	s.transport.CloseIdleConnections()
	return errors.Join(err, s.svc.Shutdown(ctx))
}

// jobRun is one closed-loop job as a client saw it.
type jobRun struct {
	client       int
	fresh        bool
	seed         uint64
	submit       time.Duration // SubmitJob round trip
	total        time.Duration // submit until WaitJob returned the final status
	observedDone time.Time
	status       asapd.JobStatus
	err          error
}

// ok reports whether the job ran every cell.
func (j *jobRun) ok() bool {
	return j.err == nil && j.status.State == asapd.StateDone && j.status.Error == "" &&
		j.status.Progress.Failed == 0 && j.status.Progress.Done == len(j.status.Cells)
}

// drive runs clients closed-loop clients against s for dur. Client c's i-th
// job is fresh (a new seed) with probability freshShare, decided by a seeded
// per-client stream, and its first job is always fresh; other jobs resubmit
// one of the client's own earlier fresh jobs, which have finished and so
// been stored.
func (s *session) drive(ctx context.Context, cfg config, dur time.Duration, seed uint64) ([][]*jobRun, time.Duration) {
	runs := make([][]*jobRun, cfg.workers)
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(cfg.workers)
	for c := 0; c < cfg.workers; c++ {
		go func() {
			defer wg.Done()
			st := rng.New(rng.Mix64(seed ^ uint64(c+1)<<32))
			var fresh []*jobRun
			for i := 0; time.Since(start) < dur; i++ {
				j := &jobRun{client: c, fresh: i == 0 || st.Bool(freshShare)}
				if j.fresh {
					j.seed = rng.Mix64(seed+uint64(c)<<40+uint64(i)) | 1
					fresh = append(fresh, j)
				} else {
					j.seed = fresh[st.Intn(len(fresh))].seed
				}
				s.runJob(ctx, cfg, j)
				runs[c] = append(runs[c], j)
			}
		}()
	}
	wg.Wait()
	return runs, time.Since(start)
}

// runJob submits one job and waits for its final status.
func (s *session) runJob(ctx context.Context, cfg config, j *jobRun) {
	t0 := time.Now()
	j.status, j.err = watched(ctx, cfg.workload, fmt.Sprintf("job seed %d", j.seed), func(ctx context.Context) (asapd.JobStatus, error) {
		st, err := s.client.SubmitJob(ctx, jobSpec(cfg.root, j.seed))
		j.submit = time.Since(t0)
		if err != nil {
			return st, err
		}
		return s.client.WaitJob(ctx, st.ID, pollInterval)
	})
	j.observedDone = time.Now()
	j.total = j.observedDone.Sub(t0)
}

// scratchDir makes a fresh directory under the checkout's build directory.
func scratchDir(cfg config, prefix string) (string, error) {
	parent := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, prefix)
}

// serviceRun is a measured service session and what it left behind.
type serviceRun struct {
	setup   float64 // median seconds to a healthy service
	runs    []*jobRun
	elapsed time.Duration
	refused int64
	posts   int64
	metrics asapd.Metrics
	trace   *trace.Trace
}

// measureService starts asapd serviceSetupReps times over one store, keeps the
// last instance, drives it for dur and shuts it down.
func measureService(ctx context.Context, cfg config, dur time.Duration) (*serviceRun, error) {
	tr, err := trace.LoadFile(filepath.Join(cfg.root, tracePath))
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir(cfg, "asapd-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var s *session
	var setups []float64
	for rep := 0; rep < serviceSetupReps; rep++ {
		runtime.GC()
		var d time.Duration
		if s, d, err = startSession(ctx, dir, cfg.workers, cfg.seed); err != nil {
			return nil, fmt.Errorf("start asapd: %w", err)
		}
		setups = append(setups, d.Seconds())
		if rep < serviceSetupReps-1 {
			if err := s.stop(ctx); err != nil {
				return nil, fmt.Errorf("stop asapd: %w", err)
			}
		}
	}
	perClient, elapsed := s.drive(ctx, cfg, dur, cfg.simSeed())
	m := s.svc.MetricsSnapshot()
	sr := &serviceRun{setup: median(setups), elapsed: elapsed, metrics: m, trace: tr,
		refused: s.counter.refusals.Load(), posts: s.counter.posts.Load()}
	if err := s.stop(ctx); err != nil {
		return nil, fmt.Errorf("stop asapd: %w", err)
	}
	for _, rs := range perClient {
		sr.runs = append(sr.runs, rs...)
	}
	return sr, nil
}

// verify checks every service result: each fresh job's records must equal
// the records of a direct simulation of the same cells, and each resubmitted
// job's records must equal its fresh original's, so the store round trip is
// lossless. It returns the direct results of the digest set, in client and
// job order.
func (sr *serviceRun) verify(ctx context.Context, cfg config, o *outcome) ([]cell, []*sim.Result, error) {
	bySeed := map[uint64]*jobRun{}
	var freshRuns []*jobRun
	for _, j := range sr.runs {
		if j.fresh && j.ok() {
			bySeed[j.seed] = j
			freshRuns = append(freshRuns, j)
		}
	}
	var cells []cell
	var owner []*jobRun
	for _, j := range freshRuns {
		for _, c := range jobCells(sr.trace, j.seed) {
			cells = append(cells, c)
			owner = append(owner, j)
		}
	}
	r := runner.New(cfg.workers)
	res, errs, _ := pass(ctx, cfg, r, cells)
	r.Close()
	direct := map[uint64][]*sim.Result{}
	for i, c := range cells {
		j := owner[i]
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("direct run of %s: %w", c.name(), errs[i])
		}
		checkLaws(o, c, res[i])
		direct[j.seed] = append(direct[j.seed], res[i])
		want := report.FromResult("asapd", c.sc, c.p, 0, res[i])
		cs := j.status.Cells[len(direct[j.seed])-1]
		o.check(cs.Record != nil && reflect.DeepEqual(*cs.Record, want),
			"service job seed %d cell %s differs from a direct simulation", j.seed, c.name())
	}
	for _, j := range sr.runs {
		if j.fresh || !j.ok() {
			continue
		}
		orig := bySeed[j.seed]
		for i, cs := range j.status.Cells {
			o.check(orig != nil && cs.Record != nil && reflect.DeepEqual(*cs.Record, *orig.status.Cells[i].Record),
				"resubmitted job seed %d cell %d differs from its first run", j.seed, i)
		}
	}

	var dcells []cell
	var dres []*sim.Result
	for c := 0; c < cfg.workers; c++ {
		n := 0
		for _, j := range freshRuns {
			if j.client != c || n == digestJobs {
				continue
			}
			n++
			dcells = append(dcells, jobCells(sr.trace, j.seed)...)
			dres = append(dres, direct[j.seed]...)
		}
		if n < digestJobs {
			return nil, nil, fmt.Errorf("client %d finished %d fresh jobs, the digest needs %d; raise --seconds", c, n, digestJobs)
		}
	}
	return dcells, dres, nil
}

// runService measures the service workload: asapd set-up, then two
// closed-loop clients for the run's time, then the output checks.
func runService(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{paramsDigest: report.Digest(baseParams(cfg.simSeed()))}
	sr, err := measureService(ctx, cfg, cfg.seconds)
	if err != nil {
		return nil, err
	}
	dcells, dres, err := sr.verify(ctx, cfg, out)
	if err != nil {
		return nil, err
	}
	var walkLat float64
	if out.digest, walkLat, err = summarize(dcells, dres); err != nil {
		return nil, err
	}
	if cfg.traced {
		asm, err := assemblies(dcells)
		if err != nil {
			return nil, err
		}
		_, builds, err := measureSetup(ctx, cfg, asm)
		if err != nil {
			return nil, err
		}
		return ledger(ctx, cfg, dcells, dres, builds, sr, out)
	}

	var opMS []float64
	var freshRunNS, freshRefs float64
	freshJobs := 0
	for _, j := range sr.runs {
		out.attempted++
		if !j.ok() {
			out.failed++
			out.check(false, "service job seed %d failed: %v %s", j.seed, j.err, j.status.Error)
			continue
		}
		opMS = append(opMS, ms(j.total))
		if j.fresh && j.status.Started != nil && j.status.Finished != nil {
			freshJobs++
			freshRunNS += float64(j.status.Finished.Sub(*j.status.Started).Nanoseconds())
			for _, cs := range j.status.Cells {
				freshRefs += cs.Record.Metrics[0] // accesses, report.MetricCols[0]
			}
		}
	}
	n := len(opMS)
	p50, _ := percentile(opMS, 0.50)
	p90, ok := percentile(opMS, 0.90)
	if !ok {
		return nil, fmt.Errorf("only %d job samples: op_ms_p90 needs %d beyond it; raise --seconds", n, minBeyond)
	}
	out.note("samples op_ms=%d fresh_jobs=%d refused=%d submissions=%d", n, freshJobs, sr.refused, sr.posts)
	out.add("ops_per_s", "1/s", float64(n)/sr.elapsed.Seconds())
	out.add("op_ms_p50", "ms", p50)
	out.add("op_ms_p90", "ms", p90)
	out.add("ns_per_ref", "ns", freshRunNS/freshRefs)
	out.add("setup_s", "s", sr.setup)
	out.add("peak_rss_mb", "MB", peakRSSMB())
	out.add("ok_frac", "frac", okFrac(out.attempted, out.failed, int(sr.refused)))
	out.add("sim_walk_cycles", "cycles", walkLat)
	return out, nil
}
