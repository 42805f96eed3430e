package asapd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/asapd/faultfs"
	"repro/internal/asapd/leakcheck"
)

// fastSpec is a small two-cell grid that simulates in milliseconds.
func fastSpec() JobSpec {
	return JobSpec{
		Cells: []CellSpec{
			{Workload: "mcf"},
			{Workload: "mcf", Colocated: true},
		},
		Params: ParamSpec{WarmupWalks: 300, MeasureWalks: 200},
	}
}

// hugeSpec is a cell that cannot finish within any test's lifetime — it only
// ever ends by cancellation (the simulator checks its context every few
// thousand references).
func hugeSpec() JobSpec {
	return JobSpec{
		Cells:  []CellSpec{{Workload: "mcf"}},
		Params: ParamSpec{WarmupWalks: 1 << 30, MeasureWalks: 1 << 30},
	}
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func shutdown(t *testing.T, s *Service, timeout time.Duration) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// TestSubmitPollComplete is the happy path over real HTTP: submit a grid
// with the client, poll to completion, check every cell carries a record.
func TestSubmitPollComplete(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 2, JobWorkers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	c := &Client{Base: srv.URL, Seed: 1}
	spec := fastSpec()
	spec.Repeats = 2
	st, err := c.SubmitJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("initial state %q", st.State)
	}
	final, err := c.WaitJob(context.Background(), st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Error != "" {
		t.Fatalf("job error: %s", final.Error)
	}
	if len(final.Cells) != 4 { // 2 cells x 2 repeats
		t.Fatalf("cells = %d, want 4", len(final.Cells))
	}
	for i, cell := range final.Cells {
		if cell.State != "done" || cell.Record == nil {
			t.Fatalf("cell %d: %+v", i, cell)
		}
		if cell.Source != SourceSimulated {
			t.Fatalf("cell %d source %q, want simulated (no store configured)", i, cell.Source)
		}
		if cell.Record.Experiment != "asapd" {
			t.Fatalf("cell %d experiment %q", i, cell.Record.Experiment)
		}
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.CellsDone != 4 || m.QueueCap != 16 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestStoreRoundTripAcrossRestart proves the persistence contract end to
// end: a second service over the same store directory serves a re-submitted
// grid entirely from disk.
func TestStoreRoundTripAcrossRestart(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()

	s1 := newService(t, Config{Workers: 2, StoreDir: dir})
	j1, err := s1.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	if err := shutdown(t, s1, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	s2 := newService(t, Config{Workers: 2, StoreDir: dir})
	defer func() {
		if err := shutdown(t, s2, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	j2, err := s2.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	st := j2.Status()
	if st.Error != "" {
		t.Fatalf("job error: %s", st.Error)
	}
	for i, cell := range st.Cells {
		if cell.Source != SourceStore {
			t.Fatalf("cell %d source %q, want store", i, cell.Source)
		}
		if cell.Record == nil {
			t.Fatalf("cell %d has no record", i)
		}
	}
	m := s2.MetricsSnapshot()
	if m.Store == nil || m.Store.Hits != 2 || m.StoreHitRate != 1.0 {
		t.Fatalf("store metrics = %+v", m.Store)
	}
}

// TestBackpressure429 fills the queue behind a deliberately stuck job and
// checks the full refusal path: Submit returns ErrBusy, HTTP returns 429
// with Retry-After, and the forced shutdown aborts the stuck cells.
func TestBackpressure429(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 1, JobWorkers: 1, QueueCap: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// First job occupies the single worker (it can only end by
	// cancellation). Wait until it is actually running so the queue state
	// below is deterministic.
	j1, err := s.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	for j1.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	// Second job fills the one queue slot.
	if _, err := s.Submit(hugeSpec()); err != nil {
		t.Fatal(err)
	}
	// Third is refused with backpressure.
	if _, err := s.Submit(fastSpec()); !errors.Is(err, ErrBusy) {
		t.Fatalf("Submit on full queue = %v, want ErrBusy", err)
	}

	body, _ := json.Marshal(fastSpec())
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Force-abort the stuck work: a short deadline exercises the cancel
	// path, and the leak check above proves nothing survived it.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown = %v, want DeadlineExceeded", err)
	}
	st := j1.Status()
	if st.State != StateDone {
		t.Fatalf("aborted job state %q", st.State)
	}
	if st.Cells[0].State != "error" || st.Cells[0].Error == "" {
		t.Fatalf("aborted cell = %+v, want structured error", st.Cells[0])
	}
}

// TestGracefulShutdownDrains submits work and immediately shuts down with a
// generous deadline: the job must complete (drained, not dropped), new work
// must be refused with 503, and no goroutine may leak.
func TestGracefulShutdownDrains(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 2, JobWorkers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	j, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := shutdown(t, s, 30*time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := j.Status()
	if st.State != StateDone || st.Error != "" {
		t.Fatalf("drained job = state %q error %q", st.State, st.Error)
	}
	for i, cell := range st.Cells {
		if cell.State != "done" {
			t.Fatalf("cell %d not drained: %+v", i, cell)
		}
	}

	if _, err := s.Submit(fastSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after shutdown = %v, want ErrDraining", err)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	body, _ := json.Marshal(fastSpec())
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

// TestJobTimeoutPartialResults proves a job deadline is surgical: the
// deadlined job's stuck cells carry structured deadline errors, while work
// that completes — including other jobs on the same runner — is untouched.
func TestJobTimeoutPartialResults(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 2, JobWorkers: 1})
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	// Two jobs race through one runner: a fast job (completes) and a
	// deadlined unfinishable one (times out). The deadline must produce a
	// per-cell structured error on the timed job without touching the fast
	// job's results.
	fast, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	huge := hugeSpec()
	huge.TimeoutMS = 300
	timed, err := s.Submit(huge)
	if err != nil {
		t.Fatal(err)
	}
	<-fast.Done()
	<-timed.Done()

	if st := fast.Status(); st.Error != "" {
		t.Fatalf("fast job dragged down: %s", st.Error)
	}
	st := timed.Status()
	if st.Error == "" || !strings.Contains(st.Error, "1/1 cells failed") {
		t.Fatalf("timed job error = %q", st.Error)
	}
	cell := st.Cells[0]
	if cell.State != "error" || !strings.Contains(cell.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("timed cell = %+v, want deadline error", cell)
	}
	if cell.Record != nil {
		t.Fatal("timed-out cell carries a record")
	}
}

// TestStoreWriteFailureIsNonFatal injects a store write fault: the job still
// succeeds (the result exists in memory) and the failure is visible in
// metrics rather than in the job.
func TestStoreWriteFailureIsNonFatal(t *testing.T) {
	defer leakcheck.Check(t)()
	faulty := faultfs.Wrap(faultfs.OS())
	s := newService(t, Config{Workers: 2, StoreDir: t.TempDir(), FS: faulty})
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	faulty.Arm(faultfs.Fault{Op: faultfs.OpSync, N: 1})

	j, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st := j.Status()
	if st.Error != "" {
		t.Fatalf("store fault leaked into the job: %s", st.Error)
	}
	m := s.MetricsSnapshot()
	if m.Store == nil || m.Store.WriteErrors != 1 {
		t.Fatalf("store metrics = %+v, want 1 write error", m.Store)
	}
}

// TestSubmitValidation checks that malformed specs are rejected at submit
// time with a 400, not buried as per-cell failures.
func TestSubmitValidation(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	for name, body := range map[string]string{
		"empty grid":         `{"cells": []}`,
		"unknown workload":   `{"cells": [{"workload": "no-such"}]}`,
		"unknown field":      `{"cellz": [{"workload": "mcf"}]}`,
		"bad asap config":    `{"cells": [{"workload": "mcf", "asap": "p9"}]}`,
		"bad scheme":         `{"cells": [{"workload": "mcf", "scheme": "no-such"}]}`,
		"missing trace":      `{"cells": [{"trace": "/no/such/file.trace"}]}`,
		"guest sans virt":    `{"cells": [{"workload": "mcf", "guest": "p1"}]}`,
		"virt plus native":   `{"cells": [{"workload": "mcf", "virtualized": true, "asap": "p1"}]}`,
		"not json":           `{]`,
		"hole prob above 1":  `{"cells": [{"workload": "mcf"}], "params": {"hole_prob": 2}}`,
		"negative hole prob": `{"cells": [{"workload": "mcf"}], "params": {"hole_prob": -0.5}}`,
		"too many units":     `{"cells": [{"workload": "mcf"}, {"workload": "mcf"}], "repeats": 40000}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if resp, err := http.Get(srv.URL + "/v1/jobs/job-999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestClientBackoff drives the client against a scripted server: two 429s
// with Retry-After, then success. The injected sleep recorder proves the
// jittered exponential schedule and the Retry-After floor; the plumbed seed
// makes the jitter reproducible.
func TestClientBackoff(t *testing.T) {
	defer leakcheck.Check(t)()
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"id": "job-1", "state": "queued", "submitted": "2020-01-01T00:00:00Z", "cells": []}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	c := &Client{
		Base:        srv.URL,
		Seed:        42,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    time.Second,
		MaxAttempts: 5,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	st, err := c.JobStatus(context.Background(), "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" || calls != 3 {
		t.Fatalf("status %+v after %d calls", st, calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %v, want 2 backoffs", slept)
	}
	for i, d := range slept {
		if d < time.Second {
			t.Errorf("backoff %d = %v, below the Retry-After floor", i, d)
		}
		if d > 2*time.Second {
			t.Errorf("backoff %d = %v, above MaxDelay + floor headroom", i, d)
		}
	}

	// Exhausted attempts surface the last backpressure error.
	calls, slept = 0, nil
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer always.Close()
	c.Base = always.URL
	c.MaxAttempts = 3
	if _, err := c.JobStatus(context.Background(), "job-1"); err == nil ||
		!strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("exhausted retries = %v", err)
	}
}

// TestClientJitterDeterministic: equal seeds give equal schedules, distinct
// seeds (generally) don't — the jitter is real but reproducible.
func TestClientJitterDeterministic(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusTooManyRequests)
		}))
		defer srv.Close()
		var slept []time.Duration
		c := &Client{
			Base: srv.URL, Seed: seed, MaxAttempts: 4,
			BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second,
			Sleep: func(_ context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			},
		}
		_, _ = c.JobStatus(context.Background(), "x")
		return slept
	}
	a, b, c := schedule(7), schedule(7), schedule(8)
	if len(a) != 3 {
		t.Fatalf("schedule %v, want 3 backoffs", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds gave identical schedules %v", a)
	}
}
