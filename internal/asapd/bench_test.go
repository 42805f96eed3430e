package asapd

import (
	"context"
	"testing"
	"time"
)

// BenchmarkSubmitStoreHit measures a store-hit job end to end without HTTP:
// Service.Submit of a 4-cell job (three synthetic cells and a replay of the
// checked-in canneal capture) until Job.Done. One run before the timer fills
// the store, so every timed job is validated, planned, queued and served
// from disk.
func BenchmarkSubmitStoreHit(b *testing.B) {
	s, err := New(Config{Workers: 1, JobWorkers: 1, StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	spec := JobSpec{
		Cells: []CellSpec{
			{Workload: "mc80"},
			{Workload: "redis", ASAP: "p1+p2"},
			{Workload: "canneal", Virtualized: true},
			{Trace: capturePath},
		},
		Params: ParamSpec{WarmupWalks: 2000, MeasureWalks: 2000, Seed: 1},
	}
	run := func() JobStatus {
		j, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		return j.Status()
	}
	if st := run(); st.Error != "" {
		b.Fatalf("warm-up job: %s", st.Error)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	for _, c := range run().Cells {
		if c.Source != SourceStore {
			b.Fatalf("cell %s served from %q, want the store", c.Cell, c.Source)
		}
	}
}
