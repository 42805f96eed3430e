package pwc

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/pt"
	"repro/internal/rng"
)

// BenchmarkPWCLookup measures one walk's use of the default split PWC: the
// lookup, then a fill of every interior entry the walk reads below the level
// it resumes at, as the walker does. The addresses are drawn once, seeded:
// a recency-skewed 1 GiB region out of 16 and a recency-skewed 2 MiB chunk
// out of 512 within it, so the PL3 and PL2 structures see hits at every
// recency position mixed with misses; the timed loop replays them.
func BenchmarkPWCLookup(b *testing.B) {
	vas := make([]mem.VirtAddr, 1<<16)
	s := rng.New(1)
	for i := range vas {
		region := s.Uint64n(s.Uint64n(16) + 1)
		chunk := s.Uint64n(s.Uint64n(512) + 1)
		page := s.Uint64n(1 << (pt.SpanShift(1) - pt.SpanShift(0)))
		vas[i] = mem.VirtAddr(region<<pt.SpanShift(2) | chunk<<pt.SpanShift(1) | page<<pt.SpanShift(0))
	}
	p := New(DefaultConfig())
	walk := func(va mem.VirtAddr) {
		for l := p.Lookup(va, 4); l >= 2; l-- {
			p.Insert(va, l)
		}
	}
	for _, va := range vas {
		walk(va)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk(vas[i&(len(vas)-1)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}
