package segstore

import (
	"fmt"
	"testing"
	"time"

	"sensorsafe/internal/storage"
)

// benchFill puts 20 contributors x 1000 records (4 samples each, 10s
// stride so wave-merge cannot collapse the population) into eng.
func benchFill(b *testing.B, eng storage.Engine) {
	b.Helper()
	for c := 0; c < 20; c++ {
		for i := 0; i < 1000; i++ {
			seg := mkSeg(fmt.Sprintf("c%d", c), time.Duration(i*10)*time.Second, 4)
			if _, err := eng.Put(seg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchStore builds a compacted store in dir holding benchFill's records.
func benchStore(b *testing.B, dir string) *Store {
	b.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	benchFill(b, s)
	if err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkDiskScan is a full-range scan decoding every block. The memory
// sub-benchmark runs the same scan over the in-memory engine, so the ratio
// of the two is the price of durability and bounded memory on the read
// path.
func BenchmarkDiskScan(b *testing.B) {
	s := benchStore(b, b.TempDir())
	defer s.Close()
	mem := storage.NewMemory(0)
	defer mem.Close()
	benchFill(b, mem)
	for _, eng := range []struct {
		name string
		storage.Engine
	}{{"segstore", s}, {"memory", mem}} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := eng.ScanRefs(storage.Query{})
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != 20000 {
					b.Fatal(len(res))
				}
			}
		})
	}
}

// BenchmarkReopen is a cold restart of a compacted store: Open reads the
// manifest, the segment footers and the WAL tail, not the data.
func BenchmarkReopen(b *testing.B) {
	dir := b.TempDir()
	if err := benchStore(b, dir).Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if s.Count() != 20000 {
			b.Fatal(s.Count())
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskPointQuery measures a narrow time-window read for one
// contributor: the sparse index should keep this at one or two block
// decodes regardless of store size.
func BenchmarkDiskPointQuery(b *testing.B) {
	s := benchStore(b, b.TempDir())
	defer s.Close()
	from := t0.Add(5000 * time.Second)
	to := t0.Add(5050 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.ScanRefs(storage.Query{Contributor: "c7", From: from, To: to})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 {
			b.Fatal("point query returned nothing")
		}
	}
}
