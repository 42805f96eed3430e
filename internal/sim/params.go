// Package sim orchestrates whole experiments: it assembles a synthetic
// process (or virtual machine) for a workload, wires up the simulated
// hardware (TLBs, page-walk caches, cache hierarchy, page walker, ASAP
// engine), replays the workload's reference stream, and reports the paper's
// metrics — average page-walk latency above all (§4: "As a primary evaluation
// metric for ASAP, we use page walk latency").
package sim

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/pwc"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Params holds the simulated platform parameters (the paper's Table 5) and
// the measurement protocol.
//
// Every field is part of a cell's identity: asaplint's keycomplete analyzer
// enforces that the report params digest covers each one, so adding a field
// here without rendering it there fails CI. Seed is allowlisted because the
// digest deliberately zeroes it (repeats share a digest).
//
//lint:key ref=Digest allow=Seed
type Params struct {
	Cache cache.Config
	PWC   pwc.Config
	// MSHRs bounds concurrently outstanding ASAP prefetches (best-effort
	// issue, §3.4).
	MSHRs int
	// RangeRegisters is the per-thread VMA descriptor capacity (§3.4: 8–16
	// registers cover 99% of the studied footprints).
	RangeRegisters int
	// HoleProb displaces each ASAP-region page-table node with this
	// probability, modelling pinned pages the OS could not clear (§3.7.2).
	HoleProb float64
	// FiveLevel builds 5-level page tables (§2.6/§3.5); the ASAP config may
	// then include P3.
	FiveLevel bool

	// WarmupWalks and MeasureWalks are the pre-measurement and measured
	// page-walk counts per run; phases are walk-based so that workloads with
	// very different TLB miss rates are measured with equal statistical
	// weight and warm caches. MaxRefs bounds a run defensively.
	WarmupWalks  int
	MeasureWalks int
	MaxRefs      int
	Seed         uint64

	// CoAccessCycles paces the SMT co-runner: it issues one random request
	// per this many cycles of application progress, so pressure rises when
	// the application stalls on long (e.g. nested) walks — the dynamics
	// behind Table 1's escalation from 2.7× (SMT) to 12× (virt + SMT).
	CoAccessCycles float64

	// CPIBase feeds the execution-time model (Fig 2 / Table 6 substitute for
	// hardware counters): each reference retires InstrPerRef instructions at
	// CPIBase cycles each, pays the workload's DataStallCycles, and pays its
	// full (serial) page-walk latency. Following the paper's methodology,
	// only page-walk traffic — plus the co-runner under colocation — flows
	// through the simulated cache hierarchy (§4).
	CPIBase float64

	// Processes co-schedules this many synthetic processes on the simulated
	// core, time-sliced by a deterministic quantum scheduler. 0 and 1 both
	// select the classic single-process run, which bypasses the scheduler
	// entirely (and stays byte-identical to the pre-multi-process simulator).
	// Process 0 runs Scenario.Workload; the rest come from Scenario.Mix.
	Processes int
	// QuantumRefs is the mean scheduler quantum in references; each slice's
	// actual length is drawn deterministically from the run's seed (see
	// workload.Scheduler). The default is small because the measurement
	// windows are: a run measures 10³–10⁵ references where real hardware
	// executes billions, so the quantum compresses proportionally to land
	// several switches inside every window — the regime of a heavily
	// oversubscribed core, time-sliced at microsecond scale.
	QuantumRefs int
	// FlushOnSwitch selects the untagged-TLB OS policy: flush the TLBs and
	// PWCs on every context switch. When false, translation state is retained
	// under per-process ASID tags and survives switches.
	FlushOnSwitch bool
	// SwitchCycles is the fixed OS cost of one context switch (trap, state
	// save/restore, scheduler work), paid by the incoming process.
	SwitchCycles float64
	// DescSwapCycles is the per-register cost of saving/restoring ASAP VMA
	// descriptors on a switch — the paper's §3.3 argument that descriptors
	// are ordinary per-thread architectural state the OS swaps. It is charged
	// per register moved (outgoing saved + incoming restored) and only when
	// ASAP is enabled, so the switch experiments expose ASAP's added
	// context-switch cost.
	DescSwapCycles float64
}

// DefaultParams mirrors Table 5 and the harness defaults.
func DefaultParams() Params {
	return Params{
		Cache:          cache.DefaultConfig(),
		PWC:            pwc.DefaultConfig(),
		MSHRs:          10,
		RangeRegisters: 16,
		WarmupWalks:    60_000,
		MeasureWalks:   50_000,
		MaxRefs:        50_000_000,
		Seed:           42,
		CoAccessCycles: 18,
		CPIBase:        0.6,
		Processes:      1,
		QuantumRefs:    300,
		SwitchCycles:   3_000,
		DescSwapCycles: 6,
	}
}

// Validate rejects parameter values that would hang a run or silently
// misconfigure it. CoAccessCycles must be a positive, finite cycle count:
// the co-runner and the multi-process footprint replay issue one access per
// CoAccessCycles, so zero would never pay off the co-runner's debt. HoleProb
// must be a probability.
func (p Params) Validate() error {
	if !(p.CoAccessCycles > 0) || math.IsInf(p.CoAccessCycles, 1) {
		return fmt.Errorf("sim: CoAccessCycles must be positive and finite, got %v", p.CoAccessCycles)
	}
	if !(p.HoleProb >= 0 && p.HoleProb <= 1) {
		return fmt.Errorf("sim: HoleProb must lie in [0,1], got %v", p.HoleProb)
	}
	return nil
}

// ForRepeat returns the parameter set for the repeat-th independent repeat of
// a cell: repeat 0 is p itself (so single-repeat runs reproduce historical
// output exactly), and each further repeat derives a fresh seed by mixing the
// base seed with the repeat index. Because Params.Seed is part of the
// runner's memo key, distinct repeats are distinct cells while every consumer
// of the same (cell, repeat) pair still shares one simulation.
func (p Params) ForRepeat(repeat int) Params {
	if repeat > 0 {
		p.Seed = rng.Mix64(p.Seed ^ uint64(repeat)<<17)
	}
	return p
}

// ASAPConfig selects prefetch levels per translation dimension. Native runs
// use Native; virtualized runs use Guest and Host (paper §3.6/Fig 10's
// P1g/P2g/P1h/P2h configurations).
type ASAPConfig struct {
	Native core.Config
	Guest  core.Config
	Host   core.Config
}

// Enabled reports whether any dimension prefetches.
func (a ASAPConfig) Enabled() bool {
	return a.Native.Enabled() || a.Guest.Enabled() || a.Host.Enabled()
}

// String names the configuration in the paper's figure style.
func (a ASAPConfig) String() string {
	if !a.Enabled() {
		return "baseline"
	}
	if a.Native.Enabled() {
		return a.Native.String()
	}
	s := ""
	for _, l := range a.Guest.Levels() {
		if s != "" {
			s += "+"
		}
		s += fmt.Sprintf("P%dg", l)
	}
	for _, l := range a.Host.Levels() {
		if s != "" {
			s += "+"
		}
		s += fmt.Sprintf("P%dh", l)
	}
	return s
}

// Scenario is one experiment cell. Every field is part of the cell's rendered
// identity: asaplint's keycomplete analyzer enforces that Name() references
// each one, so a new axis added here without extending Name() fails CI.
//
//lint:key ref=Name
type Scenario struct {
	Workload      workload.Spec
	Virtualized   bool
	Colocated     bool
	ASAP          ASAPConfig
	HostHugePages bool // hypervisor backs the guest with 2 MB pages (Fig 12)
	ClusteredTLB  bool // replace the STLB with the Clustered TLB (§5.4.1)
	// Mix names the co-scheduled workloads of a multi-process run
	// (Params.Processes > 1) as a comma-separated list, cycled to fill the
	// process count; empty replicates Workload (see workload.MixFor). A
	// string keeps Scenario flat and comparable, so mix cells memoize like
	// any other.
	Mix string
	// Trace, when non-empty, is the content digest of a registered reference
	// trace (see UseTrace) that drives the run in place of the synthetic
	// generator: the page tables, VMA sets and ASAP candidate sets are
	// rebuilt from the trace header's recorded layout, and the reference
	// stream is replayed verbatim. The digest identifies the trace's content,
	// so trace cells memoize and report like any other. Trace-driven runs are
	// native and single-process; Workload must be the trace header's spec
	// (UseTrace returns a correctly formed Scenario).
	Trace string
	// Scheme selects the translation backend (see internal/mmu): "asap" (the
	// paper's pipeline), "victima" or "revelator". Empty selects asap — the
	// zero value every pre-scheme cell carries, so historical names, digests
	// and memo keys are unchanged. Rival schemes are native-only and exclude
	// ASAP prefetch configurations (Run validates both).
	Scheme string
}

// SchemeName returns the scenario's translation scheme, resolving the empty
// zero value to "asap".
func (s Scenario) SchemeName() string { return mmu.Canonical(s.Scheme) }

// CellKey is the stable, comparable identity of one simulation cell. Unlike
// Scenario.Name it covers every field — the full workload spec and parameter
// set — so two cells share a CellKey iff a simulation of one is a valid
// result for the other. Scenario and Params are flat comparable structs
// (scalars and strings only), so the pair is used directly as a map key; a
// rendered form (e.g. %+v) would be lossy here because fmt invokes
// ASAPConfig.String, which collapses distinct Guest/Host configurations.
type CellKey struct {
	Scenario Scenario
	Params   Params
}

// Key returns the canonical cell identity for simulating s under p.
func Key(s Scenario, p Params) CellKey {
	return CellKey{Scenario: s, Params: p}
}

// Name renders a compact scenario label for logs and tables.
func (s Scenario) Name() string {
	n := s.Workload.Name
	if s.Virtualized {
		n += "/virt"
	} else {
		n += "/native"
	}
	if s.Colocated {
		n += "+colo"
	}
	if s.HostHugePages {
		n += "+2MB"
	}
	if s.ClusteredTLB {
		n += "+ctlb"
	}
	if s.Mix != "" {
		n += "+mix[" + s.Mix + "]"
	}
	if s.Trace != "" {
		n += "+trace[" + s.Trace + "]"
	}
	if s.Scheme != "" {
		n += "+mmu[" + s.Scheme + "]"
	}
	return n + "/" + s.ASAP.String()
}
