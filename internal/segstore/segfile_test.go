package segstore

import (
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// mkTimedSeg builds an aperiodic segment (explicit per-sample
// timestamps, jittered spacing) — the flagRecTimed encoding path.
func mkTimedSeg(contributor string, off time.Duration, n int) *wavesegment.Segment {
	s := mkSeg(contributor, off, n)
	s.Interval = 0
	for i := 0; i < n; i++ {
		s.Timestamps = append(s.Timestamps,
			s.Start.Add(time.Duration(i)*time.Second+time.Duration(i*7)*time.Millisecond))
	}
	return s
}

// writeTestFile writes recs through a segWriter and returns the meta.
func writeTestFile(t *testing.T, dir string, recs []rec) fileMeta {
	t.Helper()
	w, err := newSegWriter(dir, "seg-test.seg", 0)
	if err != nil {
		t.Fatalf("newSegWriter: %v", err)
	}
	for _, r := range recs {
		if err := w.add(r); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	meta, err := w.finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return meta
}

func readAllRecs(t *testing.T, r *segReader) []rec {
	t.Helper()
	var out []rec
	for i := range r.blocks {
		recs, err := r.readBlock(i)
		if err != nil {
			t.Fatalf("readBlock(%d): %v", i, err)
		}
		out = append(out, recs...)
	}
	return out
}

// TestSegfileRoundTrip writes periodic, aperiodic, annotated, and
// multi-channel records across two contributors (enough for multiple
// blocks) and verifies every record decodes back bit-identical.
func TestSegfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var recs []rec
	id := storage.ID(1)
	add := func(s *wavesegment.Segment) {
		recs = append(recs, rec{id: id, seg: s})
		id++
	}
	// More than one block's worth of records for "alice" forces several
	// blocks.
	for i := 0; i < blockRecords+8; i++ {
		add(mkSeg("alice", time.Duration(i*100)*time.Second, 6, "hr", "gsr"))
	}
	for i := 0; i < 5; i++ {
		add(mkTimedSeg("bob", time.Duration(i*100)*time.Second, 4))
	}
	annotated := mkSeg("bob", 10000*time.Second, 8)
	if err := annotated.Annotate("Walk", annotated.Start, annotated.Start.Add(3*time.Second)); err != nil {
		t.Fatalf("annotate: %v", err)
	}
	if err := annotated.Annotate("Run", annotated.Start.Add(3*time.Second), annotated.Start.Add(8*time.Second)); err != nil {
		t.Fatalf("annotate: %v", err)
	}
	add(annotated)

	meta := writeTestFile(t, dir, recs)
	if meta.Records != len(recs) {
		t.Fatalf("meta.Records = %d want %d", meta.Records, len(recs))
	}
	if meta.MinID != 1 || meta.MaxID != uint64(len(recs)) {
		t.Fatalf("meta ID bounds [%d,%d] want [1,%d]", meta.MinID, meta.MaxID, len(recs))
	}
	if meta.MinTime != t0.UnixNano() {
		t.Fatalf("meta.MinTime = %d want %d", meta.MinTime, t0.UnixNano())
	}
	if meta.RawBytes <= meta.Bytes {
		t.Fatalf("columnar+flate did not compress: raw %d <= file %d", meta.RawBytes, meta.Bytes)
	}

	r, err := openSegReader(dir, meta)
	if err != nil {
		t.Fatalf("openSegReader: %v", err)
	}
	defer r.markObsolete()
	if len(r.byContrib["alice"]) < 2 {
		t.Fatalf("alice should span multiple blocks, got %d", len(r.byContrib["alice"]))
	}
	got := make(map[storage.ID]string)
	for _, rc := range readAllRecs(t, r) {
		got[rc.id] = blob(t, rc.seg)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for _, rc := range recs {
		if got[rc.id] != blob(t, rc.seg) {
			t.Fatalf("record %d did not round trip", rc.id)
		}
	}
}

// TestSegfileBlockCorruptionDetected flips one byte inside a data
// block: the footer still validates, but reading the block must fail
// its CRC check rather than decode garbage.
func TestSegfileBlockCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	var recs []rec
	for i := 0; i < 10; i++ {
		recs = append(recs, rec{id: storage.ID(i + 1), seg: mkSeg("alice", time.Duration(i*100)*time.Second, 6)})
	}
	meta := writeTestFile(t, dir, recs)
	r, err := openSegReader(dir, meta)
	if err != nil {
		t.Fatalf("openSegReader: %v", err)
	}
	defer r.markObsolete()

	path := filepath.Join(dir, meta.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read file: %v", err)
	}
	data[r.blocks[0].offset+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatalf("rewrite file: %v", err)
	}
	// The open reader holds the old inode; reopen to see the corruption.
	r2, err := openSegReader(dir, meta)
	if err != nil {
		t.Fatalf("openSegReader after block corruption: %v (footer should still be valid)", err)
	}
	defer r2.markObsolete()
	if _, err := r2.readBlock(0); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted block read: got %v, want CRC mismatch", err)
	}
}

// TestSegfileTornFileDetected covers torn-write shapes a crash can
// leave: a truncated file, a clobbered trailer, and a bad header must
// all fail openSegReader explicitly.
func TestSegfileTornFileDetected(t *testing.T) {
	dir := t.TempDir()
	meta := writeTestFile(t, dir, []rec{{id: 1, seg: mkSeg("alice", 0, 6)}})
	path := filepath.Join(dir, meta.Name)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read file: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-3] }},
		{"clobbered trailer", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c[len(c)-len(segFootMagic):], "XXXX")
			return c
		}},
		{"bad header", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xff
			return c
		}},
		{"corrupt footer", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-segTrailerLen-2] ^= 0xff
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(pristine), 0o600); err != nil {
				t.Fatalf("mutate: %v", err)
			}
			if _, err := openSegReader(dir, meta); err == nil {
				t.Fatal("openSegReader accepted a torn file")
			}
		})
	}
}

// TestDiskIterPruning checks the sparse-index fast paths: windows
// entirely before or after the data decode nothing, and a window inside
// it decodes exactly the blocks it overlaps.
func TestDiskIterPruning(t *testing.T) {
	dir := t.TempDir()
	total := blockRecords * 2
	var recs []rec
	for i := 0; i < total; i++ { // two blocks
		recs = append(recs, rec{id: storage.ID(i + 1), seg: mkSeg("alice", time.Duration(i*100)*time.Second, 6)})
	}
	meta := writeTestFile(t, dir, recs)
	r, err := openSegReader(dir, meta)
	if err != nil {
		t.Fatalf("openSegReader: %v", err)
	}
	defer r.markObsolete()

	count := func(from, to time.Time) int {
		it := newDiskIter(r, "alice", from, to)
		n := 0
		for {
			_, ok, err := it.next()
			if err != nil {
				t.Fatalf("next: %v", err)
			}
			if !ok {
				return n
			}
			n++
		}
	}
	if got := count(time.Time{}, time.Time{}); got != total {
		t.Fatalf("unbounded iteration saw %d records, want %d", got, total)
	}
	if got := count(t0.Add(time.Duration(total*100+1000)*time.Second), time.Time{}); got != 0 {
		t.Fatalf("window after all data decoded %d records", got)
	}
	if got := count(time.Time{}, t0.Add(-time.Hour)); got != 0 {
		t.Fatalf("window before all data decoded %d records", got)
	}
	// A window decodes exactly the records of the blocks that overlap it
	// (block granularity, filtered later by Query.Matches): the second
	// block for a window inside it, both for one across the cut.
	if len(r.blocks) != 2 || r.blocks[0].records != blockRecords {
		t.Fatalf("want two %d-record blocks, got %d blocks", blockRecords, len(r.blocks))
	}
	at := func(rec int) time.Time { return t0.Add(time.Duration(rec*100) * time.Second) }
	mid := blockRecords + blockRecords/2
	if got := count(at(mid), at(mid+1)); got != blockRecords {
		t.Fatalf("window inside the second block decoded %d records, want its %d", got, blockRecords)
	}
	if got := count(at(blockRecords-1), at(blockRecords).Add(time.Second)); got != total {
		t.Fatalf("window across the block cut decoded %d records, want both blocks' %d", got, total)
	}
}

// TestDecodeBlockRejectsWrappingSampleCount feeds decodeBlock a body whose
// second record has no channels and claims 2^64-1 samples: checked as a
// sum, the claim wraps to fit the block totals and slicing the row pool
// panics.
func TestDecodeBlockRejectsWrappingSampleCount(t *testing.T) {
	var b []byte
	b = putUvarint(b, 1) // channel dictionary
	b = putString(b, "ECG")
	b = putUvarint(b, 2) // records
	b = putUvarint(b, 1) // total rows
	b = putUvarint(b, 1) // total floats
	record := func(b []byte, id uint64, channels []uint64, samples uint64) []byte {
		b = putUvarint(b, id)
		b = putVarint(b, 0) // start (delta)
		b = putVarint(b, int64(time.Second))
		b = putFloat64(b, 34.07)
		b = putFloat64(b, -118.45)
		b = append(b, 0) // flags: periodic
		b = putUvarint(b, uint64(len(channels)))
		for _, c := range channels {
			b = putUvarint(b, c)
		}
		return putUvarint(b, samples)
	}
	b = record(b, 1, []uint64{0}, 1)
	b = putFloat64(b, 0.5)
	b = putUvarint(b, 0) // annotations
	b = record(b, 2, nil, math.MaxUint64)
	b = putUvarint(b, 0)
	if _, err := decodeBlock("alice", b); err == nil {
		t.Fatal("decodeBlock accepted a sample count past the block totals")
	}
}

// rewriteFooter decodes the footer of the segment file at path, lets
// mutate edit its entries, and writes it back with a matching trailer, so
// only the edited values are wrong.
func rewriteFooter(t *testing.T, path string, mutate func([]blockIndex)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := &byteReader{data: data[len(data)-segTrailerLen:]}
	footOff := len(data) - segTrailerLen - int(tr.uint32())
	blocks, err := decodeFooter(data[footOff : len(data)-segTrailerLen])
	if err != nil {
		t.Fatal(err)
	}
	mutate(blocks)
	footer := encodeFooter(blocks)
	out := append(data[:footOff:footOff], footer...)
	out = putUint32(out, uint32(len(footer)))
	out = putUint32(out, crc32.ChecksumIEEE(footer))
	out = append(out, segFootMagic...)
	if err := os.WriteFile(path, out, 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSegReaderRejectsBadFooter covers footer entries that pass the
// footer CRC but describe no block the file could hold. readBlock would
// size its buffers from them, so openSegReader must refuse the file.
func TestOpenSegReaderRejectsBadFooter(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(b *blockIndex, footOff uint64)
	}{
		{"offset inside header", func(b *blockIndex, _ uint64) { b.offset = 2 }},
		{"range past footer", func(b *blockIndex, footOff uint64) { b.clen = footOff - b.offset + 1 }},
		{"range wrapping uint64", func(b *blockIndex, _ uint64) { b.clen = math.MaxUint64 - b.offset + 1 }},
		{"raw size over cap", func(b *blockIndex, _ uint64) { b.rawBytes = 1 << 62 }},
		{"raw size beyond deflate ratio", func(b *blockIndex, _ uint64) { b.rawBytes = b.clen*maxDeflateRatio + maxDeflateRatio }},
		{"negative records", func(b *blockIndex, _ uint64) { b.records = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			meta := writeTestFile(t, dir, []rec{{id: 1, seg: mkSeg("alice", 0, 6)}})
			path := filepath.Join(dir, meta.Name)
			rewriteFooter(t, path, func(blocks []blockIndex) {
				end := blocks[0].offset + blocks[0].clen // the footer follows the only block
				tc.mutate(&blocks[0], end)
			})
			if r, err := openSegReader(dir, meta); err == nil {
				r.markObsolete()
				t.Fatal("openSegReader accepted the footer")
			}
		})
	}
}

// FuzzSegmentFile treats a whole segment file as untrusted input: open it
// and decode every block. Either may refuse the bytes, but neither may
// panic or allocate more than the input can justify — a block inflates at
// most maxDeflateRatio-fold, and decoding it costs a bounded multiple of
// that. Seeds are two real flushed files and truncations of the first:
// periodic, aperiodic and annotated records over two contributors, and
// records large enough that the blockBytes cut closes a block every few
// records.
func FuzzSegmentFile(f *testing.F) {
	dir := f.TempDir()
	writeSeed := func(name string, segs []*wavesegment.Segment) (blocks int, data []byte) {
		w, err := newSegWriter(dir, name, 0)
		if err != nil {
			f.Fatal(err)
		}
		for i, s := range segs {
			if err := w.add(rec{id: storage.ID(i + 1), seg: s}); err != nil {
				f.Fatal(err)
			}
		}
		meta, err := w.finish()
		if err != nil {
			f.Fatal(err)
		}
		data, err = os.ReadFile(filepath.Join(dir, meta.Name))
		if err != nil {
			f.Fatal(err)
		}
		return len(w.blocks), data
	}
	annotated := mkSeg("bob", time.Hour, 8)
	if err := annotated.Annotate("Walk", annotated.Start, annotated.Start.Add(3*time.Second)); err != nil {
		f.Fatal(err)
	}
	_, seed := writeSeed("seed.seg", []*wavesegment.Segment{
		mkSeg("alice", 0, 6, "hr", "gsr"), mkSeg("alice", time.Minute, 4), mkTimedSeg("bob", 0, 4), annotated,
	})
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(segHeader)+segTrailerLen])

	var large []*wavesegment.Segment
	for i := 0; i < 10; i++ {
		s := mkSeg("alice", time.Duration(i)*time.Hour, 1500, "hr", "gsr")
		for _, row := range s.Values {
			row[0], row[1] = float64(60+i), 0.5 // flat columns keep the seed small
		}
		large = append(large, s)
	}
	blocks, cut := writeSeed("seed-cut.seg", large)
	if blocks < 3 {
		f.Fatalf("large-record seed has %d blocks, want the byte cut to fire several times", blocks)
	}
	f.Add(cut)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "f.seg"), data, 0o600); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := openSegReader(dir, fileMeta{Name: "f.seg"})
		if err == nil {
			for i := range r.blocks {
				_, _ = r.readBlock(i) // refusing a block is fine; panicking is not
			}
			r.markObsolete()
		}
		runtime.ReadMemStats(&after)
		if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(1<<24+64*maxDeflateRatio*len(data)); got > budget {
			t.Fatalf("%d input bytes allocated %d bytes (budget %d)", len(data), got, budget)
		}
	})
}
