package sim

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/workload"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Params){
		"zero pacing":        func(p *Params) { p.CoAccessCycles = 0 },
		"negative pacing":    func(p *Params) { p.CoAccessCycles = -18 },
		"NaN pacing":         func(p *Params) { p.CoAccessCycles = math.NaN() },
		"infinite pacing":    func(p *Params) { p.CoAccessCycles = math.Inf(1) },
		"sub-cycle pacing":   func(p *Params) { p.CoAccessCycles = 1e-9 },
		"denormal pacing":    func(p *Params) { p.CoAccessCycles = 1e-300 },
		"hole prob above 1":  func(p *Params) { p.HoleProb = 2 },
		"negative hole prob": func(p *Params) { p.HoleProb = -0.1 },
		"NaN hole prob":      func(p *Params) { p.HoleProb = math.NaN() },
	} {
		p := DefaultParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, h := range []float64{0, 0.5, 1} {
		p := DefaultParams()
		p.HoleProb = h
		if err := p.Validate(); err != nil {
			t.Errorf("hole prob %v rejected: %v", h, err)
		}
	}
}

// TestZeroPacingFailsFast is the regression test for the co-runner hang: a
// colocated run (and a multi-process run, whose footprint replay uses the
// same pacing) with CoAccessCycles 0 used to spin forever without polling
// its context. It must now return an error at once.
func TestZeroPacingFailsFast(t *testing.T) {
	multi := fastParams()
	multi.Processes = 2
	for name, c := range map[string]struct {
		sc Scenario
		p  Params
	}{
		"colocated":     {Scenario{Workload: tinySpec(), Colocated: true}, fastParams()},
		"multi-process": {Scenario{Workload: tinySpec()}, multi},
	} {
		c.p.CoAccessCycles = 0
		done := make(chan error, 1)
		go func() {
			_, err := Run(c.sc, c.p)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: zero pacing accepted", name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: run with zero pacing did not return", name)
		}
	}
}

// cancelTap cancels its context when the run consumes reference at, so the
// cancellation lands just before that reference's co-runner burst.
type cancelTap struct {
	at       int
	refs     int
	cancel   context.CancelFunc
	canceled time.Time
}

func (c *cancelTap) BeginProcess(int, workload.Spec, *workload.Layout, uint64) error { return nil }

func (c *cancelTap) Ref(int, mem.VirtAddr) {
	if c.refs++; c.refs == c.at {
		c.canceled = time.Now()
		c.cancel()
	}
}

// TestCancelMidCoRunnerBurst checks that cancellation reaches a colocated run
// at the densest pacing Validate admits: with one co-runner request per
// cycle, nearly all of the run's time is spent in co-runner bursts between
// context polls. Cancelled mid-window, just before a burst, the run must
// return ctx.Err() within a second.
func TestCancelMidCoRunnerBurst(t *testing.T) {
	p := fastParams()
	p.CoAccessCycles = 1
	p.WarmupWalks, p.MeasureWalks, p.MaxRefs = 1<<40, 1<<40, 1<<60
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tap := &cancelTap{at: 3 * (ctxCheckMask + 1) / 2, cancel: cancel}
	done := make(chan error, 1)
	go func() {
		_, err := RunTappedCtx(ctx, Scenario{Workload: tinySpec(), Colocated: true}, p, tap)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run returned %v, want context.Canceled", err)
		}
		d := time.Since(tap.canceled)
		t.Logf("returned %v after cancel", d)
		if d > time.Second {
			t.Fatalf("run returned %v after cancel, want within 1s", d)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return within 30s")
	}
}
