package sim

import (
	"math"
	"testing"
	"time"
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
