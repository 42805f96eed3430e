package asapd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/asapd/leakcheck"
	"repro/internal/trace"
)

// capturePath is the checked-in canneal capture the trace-cell tests replay.
var capturePath = filepath.Join("..", "exp", "testdata", "canneal.trc.gz")

// readCapture returns the checked-in capture's raw bytes.
func readCapture(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(capturePath)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// truncatedCapture re-encodes the first n references of the checked-in
// capture under its header: a valid trace with different content.
func truncatedCapture(t *testing.T, n int) []byte {
	t.Helper()
	tr, err := trace.LoadFile(capturePath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, tr.Header, true)
	if err != nil {
		t.Fatal(err)
	}
	rep := tr.Replay()
	for i := 0; i < n; i++ {
		va, ok := rep.Next()
		if !ok {
			break
		}
		if err := w.Add(va); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// traceSpec is a one-cell job replaying the trace at path on a tiny protocol.
func traceSpec(path string) JobSpec {
	return JobSpec{
		Cells:  []CellSpec{{Trace: path}},
		Params: ParamSpec{WarmupWalks: 300, MeasureWalks: 200},
	}
}

// submitDone submits spec and waits for the job to finish.
func submitDone(t *testing.T, s *Service, spec JobSpec) JobStatus {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st := j.Status()
	if st.Error != "" {
		t.Fatalf("job error: %s", st.Error)
	}
	return st
}

func (c *traceCache) stats() (entries, decodes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces), c.decodes
}

// TestTraceCellRewrittenFileIsReloaded checks the cache keys on content: a
// file rewritten in place between submits replays its new content.
func TestTraceCellRewrittenFileIsReloaded(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 1})
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	path := filepath.Join(t.TempDir(), "capture.trc.gz")
	var cells []string
	for _, n := range []int{4000, 6000} {
		writeFile(t, path, truncatedCapture(t, n))
		want, err := trace.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		st := submitDone(t, s, traceSpec(path))
		rec := st.Cells[0].Record
		if rec == nil || !strings.Contains(rec.Cell, "+trace["+want.Digest+"]") {
			t.Fatalf("%d refs: record %+v does not replay digest %s", n, rec, want.Digest)
		}
		cells = append(cells, rec.Cell)
	}
	if cells[0] == cells[1] {
		t.Fatalf("rewritten file served the old trace: %s", cells[0])
	}
	if entries, decodes := s.traces.stats(); entries != 2 || decodes != 2 {
		t.Fatalf("cache holds %d entries after %d decodes, want 2 and 2", entries, decodes)
	}
}

// TestTraceCellErrorsAreNotCached checks that a missing or corrupt trace file
// is a 400 on every submit, and that a valid file at the same path is then
// accepted.
func TestTraceCellErrorsAreNotCached(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.trc.gz")
	corrupt := filepath.Join(dir, "corrupt.trc.gz")
	writeFile(t, corrupt, readCapture(t)[:100])

	post := func(path string) int {
		t.Helper()
		body := `{"cells": [{"trace": "` + path + `"}], "params": {"warmup_walks": 300, "measure_walks": 200}}`
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{missing, corrupt} {
		for i := 0; i < 2; i++ {
			if code := post(path); code != http.StatusBadRequest {
				t.Fatalf("%s, submit %d: status %d, want 400", filepath.Base(path), i, code)
			}
		}
	}
	writeFile(t, missing, readCapture(t))
	writeFile(t, corrupt, readCapture(t))
	for _, path := range []string{missing, corrupt} {
		if code := post(path); code != http.StatusAccepted {
			t.Fatalf("%s after repair: status %d, want 202", filepath.Base(path), code)
		}
	}
	if entries, decodes := s.traces.stats(); entries != 1 || decodes != 1 {
		t.Fatalf("cache holds %d entries after %d decodes, want 1 and 1", entries, decodes)
	}
}

// TestTraceCellRefusesNonRegularFiles checks that a trace cell naming a
// device, a directory or a FIFO with no writer is a prompt 400, not a read
// without end or an open that waits for a writer.
func TestTraceCellRefusesNonRegularFiles(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 1})
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	dir := t.TempDir()
	fifo := filepath.Join(dir, "fifo")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{os.DevNull, dir, fifo} {
		_, err := s.Submit(traceSpec(path))
		if err == nil || !strings.Contains(err.Error(), "not a regular file") {
			t.Errorf("%s: got %v, want a not-a-regular-file error", path, err)
		}
	}
}

// TestTraceCellDecodedOncePerContent checks that identical bytes, from one
// path or from two, decode once and replay through one *trace.Trace.
func TestTraceCellDecodedOncePerContent(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 1})
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.trc.gz"), filepath.Join(dir, "b.trc.gz")
	writeFile(t, a, readCapture(t))
	writeFile(t, b, readCapture(t))

	var cells []string
	for _, path := range []string{a, a, b} {
		st := submitDone(t, s, traceSpec(path))
		cells = append(cells, st.Cells[0].Record.Cell)
	}
	if cells[0] != cells[1] || cells[0] != cells[2] {
		t.Fatalf("one content replayed as %q", cells)
	}
	if entries, decodes := s.traces.stats(); entries != 1 || decodes != 1 {
		t.Fatalf("cache holds %d entries after %d decodes, want 1 and 1", entries, decodes)
	}
	ta, err := s.traces.load(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.traces.load(b)
	if err != nil {
		t.Fatal(err)
	}
	if ta != tb {
		t.Fatal("identical bytes under two paths decoded to two traces")
	}
}

// TestTraceCellConcurrentFirstSubmits races first submits of one file: each
// is accepted, all replay the same content, and one trace is kept.
func TestTraceCellConcurrentFirstSubmits(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 1, QueueCap: 8})
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	path := filepath.Join(t.TempDir(), "capture.trc.gz")
	writeFile(t, path, readCapture(t))

	const submits = 8
	jobs := make([]*Job, submits)
	errs := make([]error, submits)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs[i], errs[i] = s.Submit(traceSpec(path))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		<-jobs[i].Done()
		if got, want := jobs[i].plan[0].sc.Trace, jobs[0].plan[0].sc.Trace; got != want {
			t.Fatalf("submit %d replays %s, submit 0 %s", i, got, want)
		}
	}
	if entries, decodes := s.traces.stats(); entries != 1 || decodes < 1 || decodes > submits {
		t.Fatalf("cache holds %d entries after %d decodes, want 1 and 1..%d", entries, decodes, submits)
	}
}
