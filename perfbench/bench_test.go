package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asapd"
	"repro/internal/obs"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // ranks 91..100 lie beyond: exactly 10
		{99, 0.90, 90, false}, // rank 90, only 9 beyond
		{20, 0.50, 10, true},  // 10 beyond the median
		{19, 0.50, 10, false}, // 9 beyond
		{1000, 0.99, 990, true},
		{1, 0.50, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, name := range []string{"ops_per_s", "sim.ref_ns_p99", "cache.access_ns", "9lives", "a-b.c_d"} {
		if !metricName.MatchString(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "a/b", "ünits", strings.Repeat("a", 65)} {
		if metricName.MatchString(name) {
			t.Errorf("%q accepted", name)
		}
	}
	if _, err := encodeResult(true, 1, 0, []metric{{Name: "bad name", Unit: "s", Value: 1}}); err == nil {
		t.Error("encodeResult accepted a malformed name")
	}
	if _, err := encodeResult(true, 1, 0, []metric{{Name: "a", Unit: "s", Value: 1}, {Name: "a", Unit: "s", Value: 2}}); err == nil {
		t.Error("encodeResult accepted a duplicate name")
	}
	if _, err := encodeResult(true, 1, 0, []metric{{Name: "a", Unit: "s", Value: math.NaN()}}); err == nil {
		t.Error("encodeResult accepted NaN")
	}
	line, err := encodeResult(false, 7, 2, []metric{{Name: "x.y", Unit: "ms", Value: 1.25}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":false,"attempted":7,"failed":2,"metrics":{"x.y":{"value":1.25,"unit":"ms"}}}`
	if string(line) != want {
		t.Errorf("result line %s, want %s", line, want)
	}
}

// TestRefusalCounting checks that 429 and 503 refusals the client retries
// through are still counted, and that they count against ok_frac.
func TestRefusalCounting(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n := posts.Add(1); n {
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(asapd.JobStatus{ID: "job-1", State: asapd.StateQueued})
		}
	}))
	defer srv.Close()
	rc := &refusalCounter{next: http.DefaultTransport}
	c := &asapd.Client{Base: srv.URL, HTTPClient: &http.Client{Transport: rc},
		Sleep: func(context.Context, time.Duration) error { return nil }}
	st, err := c.SubmitJob(context.Background(), asapd.JobSpec{})
	if err != nil || st.ID != "job-1" {
		t.Fatalf("SubmitJob = %+v, %v", st, err)
	}
	if rc.posts.Load() != 3 || rc.refusals.Load() != 2 {
		t.Errorf("posts=%d refusals=%d, want 3 and 2", rc.posts.Load(), rc.refusals.Load())
	}
	if got, want := okFrac(10, 1, 2), 1-3.0/12; got != want {
		t.Errorf("okFrac(10, 1, 2) = %v, want %v", got, want)
	}
	if got := okFrac(5, 0, 0); got != 1 {
		t.Errorf("okFrac with no failures = %v, want 1", got)
	}
}

func TestFailedJobsAreNotOK(t *testing.T) {
	done := asapd.JobStatus{State: asapd.StateDone, Progress: asapd.JobProgress{Total: 2, Done: 2},
		Cells: make([]asapd.CellStatus, 2)}
	for _, tc := range []struct {
		name string
		edit func(*jobRun)
		ok   bool
	}{
		{"complete", func(*jobRun) {}, true},
		{"client error", func(j *jobRun) { j.err = context.DeadlineExceeded }, false},
		{"failed cell", func(j *jobRun) { j.status.Progress.Failed, j.status.Progress.Done = 1, 1 }, false},
		{"job error", func(j *jobRun) { j.status.Error = "boom" }, false},
		{"not done", func(j *jobRun) { j.status.State = asapd.StateRunning }, false},
	} {
		j := &jobRun{status: done}
		tc.edit(j)
		if j.ok() != tc.ok {
			t.Errorf("%s: ok() = %v, want %v", tc.name, j.ok(), tc.ok)
		}
	}
}

func TestCountWalksAttributesStepsToTheirWalk(t *testing.T) {
	step := func(dim, served string) obs.Event {
		return obs.Event{Name: "pt.step", Args: []obs.Arg{{Key: "dim", Str: dim}, {Key: "served", Str: served}}}
	}
	lookup := func(level int64) obs.Event {
		return obs.Event{Name: "pwc.lookup", Args: []obs.Arg{{Key: "resume_level", Kind: obs.ArgInt, Int: level}}}
	}
	walk := func(measured bool) obs.Event {
		return obs.Event{Name: "walk", Args: []obs.Arg{{Key: "measured", Kind: obs.ArgBool, Bool: measured}}}
	}
	events := []obs.Event{
		lookup(4), step("native", "Mem"), step("native", "L2"), walk(false), // warm-up walk: ignored
		lookup(2), step("native", "PWC"), step("native", "PWC"), step("native", "Mem"), walk(true),
		{Name: "tlb.hit"},
		lookup(3), step("guest", "L1"), step("host", "Mem"), walk(true),
	}
	got := countWalks(events)
	want := walkCounts{walks: 2, nativeSteps: 3, memSteps: 2, steps: 3, pwcLevels: 8, pwcSkipped: 3}
	if got != want {
		t.Errorf("countWalks = %+v, want %+v", got, want)
	}
}

// declared reads BENCHMARK.json from the repository root.
type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestDeclarationMatchesTheBenchmark(t *testing.T) {
	d := readDeclaration(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("declared workloads %v, benchmark has %d", names, len(workloads))
	}
	var setupBound, maxBound float64
	for _, m := range d.EndToEnd {
		names = append(names, m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v)", setupBound, maxBound)
	}
	for _, m := range d.PerLayer {
		names = append(names, m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]declaredMetric{}, d.EndToEnd...), d.PerLayer...) {
		if !unitGrammar.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q / better %q malformed", m.Name, m.Unit, m.Better)
		}
	}
	for _, n := range names {
		if !metricName.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		seen[n] = true
	}
}

// smokeSeconds gives each workload just enough time for its percentile rule:
// a colocated pass takes about half a second and yields 12 samples.
var smokeSeconds = map[string]string{"colo": "10", "isolated": "2", "service": "1"}

// TestSmoke runs every workload briefly in both modes and checks that the
// result line carries exactly the declared metrics, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDeclaration(t)
	for _, w := range d.Workloads {
		for trace, declared := range [][]declaredMetric{d.EndToEnd, d.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--root", "..", "--workload", w.Name, "--seed", "3",
				"--seconds", smokeSeconds[w.Name], "--trace", []string{"0", "1"}[trace]}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Errorf("%v: exit %d\n%s", args, code, stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Errorf("%v: last line: %v", args, err)
				continue
			}
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d", args, r.Correct, r.Attempted, r.Failed)
			}
			var want, got []string
			for _, m := range declared {
				want = append(want, m.Name)
				if v, ok := r.Metrics[m.Name]; ok && v.Unit != m.Unit {
					t.Errorf("%v: %s unit %s, declared %s", args, m.Name, v.Unit, m.Unit)
				}
			}
			for name := range r.Metrics {
				got = append(got, name)
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%v: metrics\n got %v\nwant %v", args, got, want)
			}
			if !strings.Contains(stdout.String(), "sim_digest "+w.Name+" ") {
				t.Errorf("%v: no sim_digest line", args)
			}
		}
	}
}
