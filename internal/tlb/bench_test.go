package tlb

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkTLBLookup measures a TLB probe and, on a miss, its fill, on the
// STLB geometry (1536 entries, 6 ways). The pages are drawn once, seeded,
// from a recency-skewed stream over four times the STLB's reach, so hits at
// every recency position mix with misses that evict; the timed loop replays
// them.
func BenchmarkTLBLookup(b *testing.B) {
	const entries, ways = 1536, 6
	pages := make([]uint64, 1<<16)
	s := rng.New(1)
	for i := range pages {
		pages[i] = s.Uint64n(s.Uint64n(4*entries) + 1)
	}
	t := New(entries, ways)
	for _, vpn := range pages {
		if !t.Lookup(0, vpn, Page4K) {
			t.Insert(0, vpn, Page4K, 0, nil)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := pages[i&(len(pages)-1)]
		if !t.Lookup(0, vpn, Page4K) {
			t.Insert(0, vpn, Page4K, 0, nil)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}
