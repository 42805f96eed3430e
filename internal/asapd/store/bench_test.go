package store

import "testing"

// BenchmarkStoreGet measures a store hit: read the entry, verify its
// checksum and key, and decode the result. The entry is a real mcf cell
// written once before the timer starts.
func BenchmarkStoreGet(b *testing.B) {
	s := openStore(b, b.TempDir(), nil)
	key := testCell(b)
	if err := s.Put(key, simulate(b, key)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(key); !ok {
			b.Fatal("stored entry missed")
		}
	}
}

// BenchmarkStorePut measures one durable write of a real mcf cell: encode,
// write a temp file, fsync it and rename it over the previous entry.
func BenchmarkStorePut(b *testing.B) {
	s := openStore(b, b.TempDir(), nil)
	key := testCell(b)
	res := simulate(b, key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(key, res); err != nil {
			b.Fatal(err)
		}
	}
}
