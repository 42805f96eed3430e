package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// coRunnerSpan matches the SMT co-runner's footprint in internal/sim: a
// uniform stream over 16 GiB misses every level almost always.
const coRunnerSpan = 16 << 30

// coRunnerLines draws the co-runner's address stream: uniform cache lines
// over the span, seeded so every run replays the same stream.
type coRunnerLines struct{ s *rng.Stream }

func (c coRunnerLines) next() mem.PhysAddr {
	return mem.PhysAddr(c.s.Uint64n(coRunnerSpan/mem.LineBytes) * mem.LineBytes)
}

// BenchmarkHierarchyCoRunner measures Hierarchy.Access on the co-runner's
// stream over DefaultConfig, in two states: "cold" restarts from an empty
// hierarchy every coldWindow accesses (untimed), so most LLC sets stay
// partly filled; "full" first fills the hierarchy with twice the LLC's
// capacity, so every miss evicts.
func BenchmarkHierarchyCoRunner(b *testing.B) {
	cfg := DefaultConfig()
	llcLines := cfg.L3.SizeBytes / mem.LineBytes
	const coldWindow = 1 << 16
	b.Run("cold", func(b *testing.B) {
		lines := coRunnerLines{rng.New(1)}
		h := NewHierarchy(cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%coldWindow == coldWindow-1 {
				b.StopTimer()
				h = NewHierarchy(cfg)
				b.StartTimer()
			}
			h.Access(lines.next())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
	})
	b.Run("full", func(b *testing.B) {
		lines := coRunnerLines{rng.New(1)}
		h := NewHierarchy(cfg)
		for i := 0; i < 2*llcLines; i++ {
			h.Access(lines.next())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(lines.next())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
	})
}

// BenchmarkSetAssocLookupInsert measures the combined probe-and-fill on the
// STLB's geometry (1536 entries, 6 ways) over a uniform key stream twice
// its capacity, so about half the probes hit.
func BenchmarkSetAssocLookupInsert(b *testing.B) {
	const entries, ways = 1536, 6
	s := NewSetAssoc(entries, ways)
	keys := rng.New(1)
	for i := 0; i < 4*entries; i++ {
		s.LookupInsert(keys.Uint64n(2 * entries))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LookupInsert(keys.Uint64n(2 * entries))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}
