package trace

import (
	"bytes"
	"os"
	"testing"
)

// BenchmarkTraceLoad measures one full decode of the checked-in canneal
// capture (17.7 KB gzip, 9141 references): gunzip, header decode, the
// validating pass over the reference stream and the content digest. The file
// is read once, outside the timer, so the loop times decoding alone.
func BenchmarkTraceLoad(b *testing.B) {
	raw, err := os.ReadFile("../exp/testdata/canneal.trc.gz")
	if err != nil {
		b.Fatal(err)
	}
	var refs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Load(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		refs += tr.Count
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
}
