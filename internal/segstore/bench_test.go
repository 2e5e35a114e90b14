package segstore

import (
	"fmt"
	"testing"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/inference"
	"sensorsafe/internal/sensors"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
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

// BenchmarkWindowRead is every 1 min read of four compacted DayInTheLife
// sessions (66 min each, uploaded as the store ingests them: 16-packet
// batches, merged per stream). It reports the scan work counters per
// read; the memtable is sized so the only flush is Compact's, and the
// counts repeat exactly from run to run.
func BenchmarkWindowRead(b *testing.B) {
	start := time.Date(2011, 2, 14, 9, 30, 0, 0, time.UTC)
	s, err := Open(Options{Dir: b.TempDir(), MemtableBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var length time.Duration
	for c := 0; c < 4; c++ {
		sc := sensors.DayInTheLife(start, geo.Point{Lat: 34.0689, Lon: -118.4452}, 1)
		sc.Seed = int64(c + 1)
		length = sc.Duration()
		rec, err := sensors.Generate(fmt.Sprintf("c%d", c), sc)
		if err != nil {
			b.Fatal(err)
		}
		packets := rec.AllSegments()
		inference.ApplyAnnotations(packets, (&inference.Annotator{}).Annotate(packets))
		for lo := 0; lo < len(packets); lo += 16 {
			streams := make(map[string][]*wavesegment.Segment)
			var order []string
			for _, p := range packets[lo:min(lo+16, len(packets))] {
				k := p.StreamKey()
				if streams[k] == nil {
					order = append(order, k)
				}
				streams[k] = append(streams[k], p)
			}
			for _, k := range order {
				merged, err := wavesegment.OptimizeAll(streams[k], wavesegment.DefaultMaxSamples)
				if err != nil {
					b.Fatal(err)
				}
				for _, seg := range merged {
					if _, err := s.Put(seg); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	if err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	blocks0, inflated0 := metricScanBlocks.Value(), metricScanInflated.Value()
	reads := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < 4; c++ {
			for off := time.Duration(0); off+time.Minute <= length; off += time.Minute {
				from := start.Add(off)
				res, err := s.ScanRefs(storage.Query{Contributor: fmt.Sprintf("c%d", c), From: from, To: from.Add(time.Minute)})
				if err != nil {
					b.Fatal(err)
				}
				if len(res) == 0 {
					b.Fatalf("c%d at +%v: empty read", c, off)
				}
				reads++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reads), "ns/read")
	b.ReportMetric((metricScanBlocks.Value()-blocks0)/float64(reads), "blocks/read")
	b.ReportMetric((metricScanInflated.Value()-inflated0)/float64(reads), "inflated-B/read")
}
