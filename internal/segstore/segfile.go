package segstore

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// Segment-file format. A segment file is an immutable, sorted run of wave
// segments in a columnar per-contributor/per-channel layout:
//
//	header  "SSEG1\n"
//	blocks  (each: flate-compressed body, CRC'd; one contributor per block,
//	        cut at blockBytes decoded or blockRecords records)
//	footer  sparse index: one entry per block with contributor, byte range,
//	        CRC, time bounds, ID bounds, record count, raw size
//	trailer u32 footer length, u32 footer CRC, magic "SSF1"
//
// Block body (before compression):
//
//	channel dictionary (names stored once per block)
//	record count
//	per record: id, start (delta from previous record), interval,
//	            location, channel dict refs, sample count,
//	            values column-major per channel (the columnar layout),
//	            per-sample timestamp deltas (non-periodic records only),
//	            annotations (context spans, delta-encoded)
//
// Start times and per-sample timestamps are delta-encoded varints; the
// whole body is flate-compressed, so repetitive sensor floats shrink.
// Readers keep only the footer index in memory and fetch blocks on
// demand, which is what makes restart "read footers, not data".

var (
	segHeader     = []byte("SSEG1\n")
	segFootMagic  = []byte("SSF1")
	segTrailerLen = 4 + 4 + len(segFootMagic)
)

const (
	// blockBytes is where the writer cuts a block: once a contributor's
	// pending records estimate (rawEstimate) at least this many decoded
	// bytes, they become one block. A block is the unit a read inflates,
	// so a read costs about its window plus one block at each edge, not
	// the minutes of data a record-count cut packs around it: a phone's
	// 6-channel, 64-sample packets rarely wave-merge (each carries its
	// own location), and 128 of them decode to about 400 KB. A block is
	// below blockBytes plus its last record's estimate.
	blockBytes = 64 << 10
	// blockRecords caps how many records one block holds when the
	// records are small enough that blockBytes does not cut first.
	// decodeBlock rejects a record count far past it as implausible.
	blockRecords = 128
	flagRecTimed = 1

	// maxBlockRawBytes caps one block's decompressed size as the footer
	// states it. readBlock allocates this much before decompressing, so a
	// footer claiming more is rejected at open. The writer never comes
	// near it: a block is under blockBytes plus one record, and a 64 MiB
	// upload body limits one record to well under the cap.
	maxBlockRawBytes = 1 << 30
	// maxDeflateRatio is DEFLATE's best case (a 258-byte match per two
	// bits), so no block inflates to more than this many times its
	// compressed length.
	maxDeflateRatio = 1032
)

// rec pairs a stored segment with its ID inside the engine.
type rec struct {
	id  storage.ID
	seg *wavesegment.Segment
}

// flate codec state is large (tens to hundreds of KB per instance) and
// both sides of the block codec run once per block, so pooled instances
// keep flushes, compaction, and scans from being allocation-bound.
var (
	flateReaders sync.Pool // io.ReadCloser values implementing flate.Resetter
	flateWriters sync.Pool // *flate.Writer values
)

func getFlateReader(src io.Reader) io.ReadCloser {
	if v := flateReaders.Get(); v != nil {
		fr := v.(io.ReadCloser)
		fr.(flate.Resetter).Reset(src, nil)
		return fr
	}
	return flate.NewReader(src)
}

func putFlateReader(fr io.ReadCloser) {
	fr.Close()
	flateReaders.Put(fr)
}

func getFlateWriter(dst io.Writer) (*flate.Writer, error) {
	if v := flateWriters.Get(); v != nil {
		fw := v.(*flate.Writer)
		fw.Reset(dst)
		return fw, nil
	}
	return flate.NewWriter(dst, flate.DefaultCompression)
}

func putFlateWriter(fw *flate.Writer) { flateWriters.Put(fw) }

// blockBufs recycles the compressed and decompressed scratch buffers used
// by readBlock. decodeBlock copies every value it keeps (floats, strings,
// timestamps), so the buffers are dead as soon as it returns.
var blockBufs sync.Pool // *[]byte values

func getBlockBuf(n uint64) *[]byte {
	if v := blockBufs.Get(); v != nil {
		bp := v.(*[]byte)
		if uint64(cap(*bp)) >= n {
			*bp = (*bp)[:n]
			return bp
		}
	}
	b := make([]byte, n)
	return &b
}

func putBlockBuf(bp *[]byte) { blockBufs.Put(bp) }

// blockIndex is one footer entry: everything a scan needs to decide
// whether a block is worth decompressing.
type blockIndex struct {
	contributor string
	offset      uint64
	clen        uint64
	crc         uint32
	minStart    int64 // unix nanos of the earliest record start
	maxEnd      int64 // unix nanos of the latest record end
	minID       uint64
	maxID       uint64
	records     int
	rawBytes    uint64
}

// fileMeta summarizes one segment file for the manifest.
type fileMeta struct {
	Name     string `json:"name"`
	Level    int    `json:"level"`
	Records  int    `json:"records"`
	Bytes    int64  `json:"bytes"`
	RawBytes int64  `json:"rawBytes"`
	MinTime  int64  `json:"minTime"` // unix nanos
	MaxTime  int64  `json:"maxTime"` // unix nanos
	MinID    uint64 `json:"minID"`
	MaxID    uint64 `json:"maxID"`
}

func (m fileMeta) overlaps(from, to time.Time) bool {
	if !from.IsZero() && m.MaxTime <= from.UnixNano() {
		return false
	}
	if !to.IsZero() && m.MinTime >= to.UnixNano() {
		return false
	}
	return true
}

// segWriter streams records into a new segment file. Records must be
// added per contributor in (start, id) order; contributors may
// interleave. The file is written to <name>.tmp and atomically renamed
// into place by finish (temp + fsync + rename, the WriteFileAtomic
// discipline, streamed).
type segWriter struct {
	dir   string
	name  string
	level int
	f     *os.File
	off   uint64

	pending    map[string][]rec // per-contributor buffered records
	pendingRaw map[string]int   // per-contributor estimate of the block body size
	order      []string         // contributor first-seen order, for determinism
	blocks     []blockIndex

	records  int
	rawBytes uint64
}

func newSegWriter(dir, name string, level int) (*segWriter, error) {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("segstore: create %s: %w", tmp, err)
	}
	if _, err := f.Write(segHeader); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("segstore: write header: %w", err)
	}
	return &segWriter{
		dir: dir, name: name, level: level, f: f,
		off:        uint64(len(segHeader)),
		pending:    make(map[string][]rec),
		pendingRaw: make(map[string]int),
	}, nil
}

func (w *segWriter) add(r rec) error {
	c := r.seg.Contributor
	if _, seen := w.pending[c]; !seen {
		w.order = append(w.order, c)
	}
	w.pending[c] = append(w.pending[c], r)
	w.pendingRaw[c] += rawEstimate(r.seg)
	if len(w.pending[c]) >= blockRecords || w.pendingRaw[c] >= blockBytes {
		return w.flushContributor(c)
	}
	return nil
}

func (w *segWriter) flushContributor(c string) error {
	recs := w.pending[c]
	if len(recs) == 0 {
		return nil
	}
	w.pending[c], w.pendingRaw[c] = nil, 0
	body := encodeBlock(c, recs)
	var comp bytes.Buffer
	fw, err := getFlateWriter(&comp)
	if err != nil {
		return err
	}
	if _, err := fw.Write(body); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	putFlateWriter(fw)
	idx := blockIndex{
		contributor: c,
		offset:      w.off,
		clen:        uint64(comp.Len()),
		crc:         crc32.ChecksumIEEE(comp.Bytes()),
		minStart:    recs[0].seg.StartTime().UnixNano(),
		maxEnd:      recs[0].seg.EndTime().UnixNano(),
		minID:       uint64(recs[0].id),
		maxID:       uint64(recs[0].id),
		records:     len(recs),
		rawBytes:    uint64(len(body)),
	}
	for _, r := range recs[1:] {
		if e := r.seg.EndTime().UnixNano(); e > idx.maxEnd {
			idx.maxEnd = e
		}
		if id := uint64(r.id); id < idx.minID {
			idx.minID = id
		} else if id > idx.maxID {
			idx.maxID = id
		}
	}
	if _, err := w.f.Write(comp.Bytes()); err != nil {
		return fmt.Errorf("segstore: write block: %w", err)
	}
	w.off += idx.clen
	w.blocks = append(w.blocks, idx)
	w.records += len(recs)
	w.rawBytes += idx.rawBytes
	return nil
}

// finish flushes remaining blocks, writes the footer, fsyncs, and
// renames the temp file into place. Returns the manifest entry.
func (w *segWriter) finish() (fileMeta, error) {
	fail := func(err error) (fileMeta, error) {
		w.f.Close()
		os.Remove(filepath.Join(w.dir, w.name+".tmp"))
		return fileMeta{}, err
	}
	for _, c := range w.order {
		if err := w.flushContributor(c); err != nil {
			return fail(err)
		}
	}
	if len(w.blocks) == 0 {
		return fail(fmt.Errorf("segstore: refusing to write empty segment file %s", w.name))
	}
	footer := encodeFooter(w.blocks)
	if _, err := w.f.Write(footer); err != nil {
		return fail(fmt.Errorf("segstore: write footer: %w", err))
	}
	var trailer []byte
	trailer = putUint32(trailer, uint32(len(footer)))
	trailer = putUint32(trailer, crc32.ChecksumIEEE(footer))
	trailer = append(trailer, segFootMagic...)
	if _, err := w.f.Write(trailer); err != nil {
		return fail(fmt.Errorf("segstore: write trailer: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return fail(fmt.Errorf("segstore: fsync segment: %w", err))
	}
	if err := w.f.Close(); err != nil {
		return fail(fmt.Errorf("segstore: close segment: %w", err))
	}
	tmp := filepath.Join(w.dir, w.name+".tmp")
	final := filepath.Join(w.dir, w.name)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fileMeta{}, fmt.Errorf("segstore: commit segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		// The file is in place but not in any manifest; the next open
		// removes it as an orphan.
		return fileMeta{}, err
	}
	meta := fileMeta{
		Name: w.name, Level: w.level, Records: w.records,
		RawBytes: int64(w.rawBytes),
		MinID:    w.blocks[0].minID, MaxID: w.blocks[0].maxID,
		MinTime: w.blocks[0].minStart, MaxTime: w.blocks[0].maxEnd,
	}
	for _, b := range w.blocks[1:] {
		if b.minStart < meta.MinTime {
			meta.MinTime = b.minStart
		}
		if b.maxEnd > meta.MaxTime {
			meta.MaxTime = b.maxEnd
		}
		if b.minID < meta.MinID {
			meta.MinID = b.minID
		}
		if b.maxID > meta.MaxID {
			meta.MaxID = b.maxID
		}
	}
	if fi, err := os.Stat(final); err == nil {
		meta.Bytes = fi.Size()
	}
	return meta, nil
}

// abort discards a writer that will not be finished.
func (w *segWriter) abort() {
	w.f.Close()
	os.Remove(filepath.Join(w.dir, w.name+".tmp"))
}

// syncDir makes the creations, renames and removals in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("segstore: sync dir: %w", err)
	}
	return nil
}

// rawEstimate bounds the bytes encodeBlock spends on s, apart from the
// block's shared channel dictionary.
func rawEstimate(s *wavesegment.Segment) int {
	n := 80 + 10*len(s.Channels) + 10*len(s.Timestamps) + 8*len(s.Values)*len(s.Channels)
	for _, a := range s.Annotations {
		n += 30 + len(a.Context)
	}
	return n
}

func encodeBlock(contributor string, recs []rec) []byte {
	// Block-local channel dictionary: names are stored once and records
	// reference them by index.
	dict := make(map[string]int)
	var names []string
	for _, r := range recs {
		for _, c := range r.seg.Channels {
			if _, ok := dict[c]; !ok {
				dict[c] = len(names)
				names = append(names, c)
			}
		}
	}
	var b []byte
	b = putUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = putString(b, n)
	}
	b = putUvarint(b, uint64(len(recs)))
	// Block-level totals let the decoder allocate one sample-row array
	// and one float array for the whole block instead of three slices
	// per record — scans are GC-bound without this.
	totalRows, totalFloats := 0, 0
	for _, r := range recs {
		totalRows += len(r.seg.Values)
		totalFloats += len(r.seg.Values) * len(r.seg.Channels)
	}
	b = putUvarint(b, uint64(totalRows))
	b = putUvarint(b, uint64(totalFloats))
	prevStart := int64(0)
	for i, r := range recs {
		s := r.seg
		start := s.StartTime().UnixNano()
		b = putUvarint(b, uint64(r.id))
		if i == 0 {
			b = putVarint(b, start)
		} else {
			b = putVarint(b, start-prevStart)
		}
		prevStart = start
		b = putVarint(b, int64(s.Interval))
		b = putFloat64(b, s.Location.Lat)
		b = putFloat64(b, s.Location.Lon)
		var flags byte
		if s.Interval <= 0 {
			flags |= flagRecTimed
		}
		b = append(b, flags)
		b = putUvarint(b, uint64(len(s.Channels)))
		for _, c := range s.Channels {
			b = putUvarint(b, uint64(dict[c]))
		}
		b = putUvarint(b, uint64(len(s.Values)))
		// Columnar: one channel's samples are contiguous, so a flate
		// window sees runs of similar floats instead of interleaved rows.
		for col := range s.Channels {
			for _, row := range s.Values {
				b = putFloat64(b, row[col])
			}
		}
		if flags&flagRecTimed != 0 {
			prev := start
			for _, t := range s.Timestamps {
				ns := t.UnixNano()
				b = putUvarint(b, uint64(ns-prev))
				prev = ns
			}
		}
		b = putUvarint(b, uint64(len(s.Annotations)))
		for _, a := range s.Annotations {
			b = putString(b, a.Context)
			b = putVarint(b, a.Start.UnixNano()-start)
			b = putVarint(b, a.End.UnixNano()-start)
		}
	}
	return b
}

func decodeBlock(contributor string, body []byte) ([]rec, error) {
	r := &byteReader{data: body}
	nd := r.uvarint()
	if nd > 1<<16 {
		return nil, fmt.Errorf("segstore: implausible channel dictionary size %d", nd)
	}
	dict := make([]string, nd)
	for i := range dict {
		dict[i] = r.string()
	}
	n := r.uvarint()
	if n > blockRecords*16 {
		return nil, fmt.Errorf("segstore: implausible block record count %d", n)
	}
	totalRows := r.uvarint()
	totalFloats := r.uvarint()
	// Floats are stored verbatim (8 bytes each), so the totals cannot
	// exceed the decompressed body.
	if totalFloats > uint64(len(body))/8 || totalRows > totalFloats {
		return nil, fmt.Errorf("segstore: implausible block totals (%d rows, %d floats)", totalRows, totalFloats)
	}
	out := make([]rec, 0, n)
	// Block-granular allocation: one contiguous segment array, one
	// sample-row header array, one float array, one channel-ref array
	// for the whole block. A scan decodes thousands of records; with
	// per-record slices the GC dominates the entire read path.
	segs := make([]wavesegment.Segment, n)
	rowPool := make([][]float64, totalRows)
	floatPool := make([]float64, totalFloats)
	// Every channel reference takes at least one byte of the body.
	chanPool := make([]string, 0, min(n*nd, uint64(len(body))))
	rowCur, floatCur := uint64(0), uint64(0)
	prevStart := int64(0)
	for i := uint64(0); i < n && r.err == nil; i++ {
		id := storage.ID(r.uvarint())
		start := r.varint()
		if i > 0 {
			start += prevStart
		}
		prevStart = start
		seg := &segs[i]
		seg.Contributor = contributor
		seg.Interval = time.Duration(r.varint())
		seg.Location.Lat = r.float64()
		seg.Location.Lon = r.float64()
		var flags byte
		if r.off < len(r.data) {
			flags = r.data[r.off]
			r.off++
		} else {
			r.fail("short flags")
		}
		nch := r.uvarint()
		if nch > nd {
			return nil, fmt.Errorf("segstore: record channel count %d exceeds dictionary", nch)
		}
		// chanPool's capacity is never exceeded (nch <= nd for every
		// record, and each reference is at least one byte), so these
		// appends do not reallocate the block's shared array.
		chanBase := len(chanPool)
		for j := uint64(0); j < nch && r.err == nil; j++ {
			idx := r.uvarint()
			if r.err == nil && idx >= nd {
				r.fail("channel dict index out of range")
				break
			}
			if r.err == nil {
				chanPool = append(chanPool, dict[idx])
			}
		}
		seg.Channels = chanPool[chanBase:len(chanPool):len(chanPool)]
		ns := r.uvarint()
		// Compared by subtraction: a crafted ns near 2^64 would wrap a sum.
		if r.err == nil && (ns > totalRows-rowCur || nch != 0 && ns > (totalFloats-floatCur)/nch) {
			return nil, fmt.Errorf("segstore: block totals overrun (%d samples claimed)", ns)
		}
		if r.err == nil {
			flat := floatPool[floatCur : floatCur+ns*nch]
			seg.Values = rowPool[rowCur : rowCur+ns : rowCur+ns]
			for row := uint64(0); row < ns; row++ {
				seg.Values[row] = flat[row*nch : (row+1)*nch : (row+1)*nch]
			}
			rowCur += ns
			floatCur += ns * nch
			for col := uint64(0); col < nch; col++ {
				for row := uint64(0); row < ns; row++ {
					seg.Values[row][col] = r.float64()
				}
			}
		}
		if flags&flagRecTimed != 0 {
			seg.Timestamps = make([]time.Time, ns)
			prev := start
			for j := range seg.Timestamps {
				prev += int64(r.uvarint())
				seg.Timestamps[j] = time.Unix(0, prev).UTC()
			}
			if ns > 0 && r.err == nil {
				seg.Start = seg.Timestamps[0]
			}
		} else {
			seg.Start = time.Unix(0, start).UTC()
		}
		na := r.uvarint()
		if na > 1<<20 {
			return nil, fmt.Errorf("segstore: implausible annotation count %d", na)
		}
		for j := uint64(0); j < na && r.err == nil; j++ {
			var a wavesegment.Annotation
			a.Context = r.string()
			a.Start = time.Unix(0, start+r.varint()).UTC()
			a.End = time.Unix(0, start+r.varint()).UTC()
			seg.Annotations = append(seg.Annotations, a)
		}
		out = append(out, rec{id: id, seg: seg})
	}
	if r.err != nil {
		return nil, fmt.Errorf("segstore: corrupt block: %w", r.err)
	}
	return out, nil
}

func encodeFooter(blocks []blockIndex) []byte {
	var b []byte
	b = putUvarint(b, uint64(len(blocks)))
	for _, idx := range blocks {
		b = putString(b, idx.contributor)
		b = putUvarint(b, idx.offset)
		b = putUvarint(b, idx.clen)
		b = putUint32(b, idx.crc)
		b = putVarint(b, idx.minStart)
		b = putVarint(b, idx.maxEnd)
		b = putUvarint(b, idx.minID)
		b = putUvarint(b, idx.maxID)
		b = putUvarint(b, uint64(idx.records))
		b = putUvarint(b, idx.rawBytes)
	}
	return b
}

func decodeFooter(data []byte) ([]blockIndex, error) {
	r := &byteReader{data: data}
	n := r.uvarint()
	// Every entry takes more than one byte.
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("segstore: implausible block count %d", n)
	}
	out := make([]blockIndex, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		var idx blockIndex
		idx.contributor = r.string()
		idx.offset = r.uvarint()
		idx.clen = r.uvarint()
		idx.crc = r.uint32()
		idx.minStart = r.varint()
		idx.maxEnd = r.varint()
		idx.minID = r.uvarint()
		idx.maxID = r.uvarint()
		idx.records = int(r.uvarint())
		idx.rawBytes = r.uvarint()
		out = append(out, idx)
	}
	if r.err != nil {
		return nil, fmt.Errorf("segstore: corrupt footer: %w", r.err)
	}
	return out, nil
}

// check rejects a footer entry whose byte range falls outside the block
// area [len(segHeader), footOff) or whose sizes no real block could have;
// readBlock allocates clen and rawBytes before it can verify anything.
func (b blockIndex) check(footOff uint64) error {
	switch {
	case b.offset < uint64(len(segHeader)):
		return fmt.Errorf("offset %d inside the file header", b.offset)
	case b.offset > footOff || b.clen > footOff-b.offset:
		return fmt.Errorf("byte range %d+%d runs past the footer at %d", b.offset, b.clen, footOff)
	case b.rawBytes > maxBlockRawBytes || b.rawBytes/maxDeflateRatio > b.clen:
		return fmt.Errorf("implausible raw size %d for %d compressed bytes", b.rawBytes, b.clen)
	case b.records < 0:
		return fmt.Errorf("negative record count %d", b.records)
	}
	return nil
}

// segReader serves block reads from one immutable segment file. Readers
// are reference-counted: scans retain them so compaction can unlink a
// file that in-flight scans still read (the open descriptor keeps the
// data reachable until the last release closes it).
type segReader struct {
	path   string
	meta   fileMeta
	blocks []blockIndex
	// byContrib indexes blocks per contributor in file order (which is
	// time order within a contributor).
	byContrib map[string][]int

	mu       sync.Mutex
	f        *os.File // guarded by mu
	refs     int      // guarded by mu
	obsolete bool     // guarded by mu
}

// openSegReader validates the file's trailer and footer and loads the
// sparse index; block data stays on disk.
func openSegReader(dir string, meta fileMeta) (*segReader, error) {
	path := filepath.Join(dir, meta.Name)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segstore: open segment %s: %w", meta.Name, err)
	}
	fail := func(err error) (*segReader, error) {
		f.Close()
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if fi.Size() < int64(len(segHeader)+segTrailerLen) {
		return fail(fmt.Errorf("segstore: segment %s truncated (%d bytes)", meta.Name, fi.Size()))
	}
	var hdr [8]byte
	if _, err := f.ReadAt(hdr[:len(segHeader)], 0); err != nil {
		return fail(fmt.Errorf("segstore: segment %s: read header: %w", meta.Name, err))
	}
	if !bytes.Equal(hdr[:len(segHeader)], segHeader) {
		return fail(fmt.Errorf("segstore: segment %s: bad header magic", meta.Name))
	}
	trailer := make([]byte, segTrailerLen)
	if _, err := f.ReadAt(trailer, fi.Size()-int64(segTrailerLen)); err != nil {
		return fail(fmt.Errorf("segstore: segment %s: read trailer: %w", meta.Name, err))
	}
	if !bytes.Equal(trailer[8:], segFootMagic) {
		return fail(fmt.Errorf("segstore: segment %s: bad trailer magic (torn file?)", meta.Name))
	}
	tr := &byteReader{data: trailer}
	flen := tr.uint32()
	fcrc := tr.uint32()
	footOff := fi.Size() - int64(segTrailerLen) - int64(flen)
	if footOff < int64(len(segHeader)) {
		return fail(fmt.Errorf("segstore: segment %s: implausible footer length %d", meta.Name, flen))
	}
	footer := make([]byte, flen)
	if _, err := f.ReadAt(footer, footOff); err != nil {
		return fail(fmt.Errorf("segstore: segment %s: read footer: %w", meta.Name, err))
	}
	if crc32.ChecksumIEEE(footer) != fcrc {
		return fail(fmt.Errorf("segstore: segment %s: footer CRC mismatch (torn file?)", meta.Name))
	}
	blocks, err := decodeFooter(footer)
	if err != nil {
		return fail(fmt.Errorf("segstore: segment %s: %w", meta.Name, err))
	}
	for i, b := range blocks {
		if err := b.check(uint64(footOff)); err != nil {
			return fail(fmt.Errorf("segstore: segment %s block %d: %w", meta.Name, i, err))
		}
	}
	r := &segReader{
		path: path, meta: meta, blocks: blocks, f: f, refs: 1,
		byContrib: make(map[string][]int),
	}
	for i, b := range blocks {
		r.byContrib[b.contributor] = append(r.byContrib[b.contributor], i)
	}
	return r, nil
}

// retain takes a reference for the duration of a scan.
func (r *segReader) retain() {
	r.mu.Lock()
	r.refs++
	r.mu.Unlock()
}

// release drops a reference; the descriptor closes once the reader is
// both obsolete (compacted away) and unreferenced.
func (r *segReader) release() {
	r.mu.Lock()
	r.refs--
	if r.refs <= 0 && r.obsolete && r.f != nil {
		r.f.Close()
		r.f = nil
	}
	r.mu.Unlock()
}

// markObsolete is called when compaction replaces this file; the base
// reference taken at open is dropped.
func (r *segReader) markObsolete() {
	r.mu.Lock()
	r.obsolete = true
	r.mu.Unlock()
	r.release()
}

// readBlock fetches, verifies, and decodes one block.
func (r *segReader) readBlock(i int) ([]rec, error) {
	idx := r.blocks[i]
	compBuf := getBlockBuf(idx.clen)
	defer putBlockBuf(compBuf)
	comp := *compBuf
	r.mu.Lock()
	f := r.f
	r.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("segstore: segment %s closed", r.meta.Name)
	}
	if _, err := f.ReadAt(comp, int64(idx.offset)); err != nil {
		return nil, fmt.Errorf("segstore: segment %s block %d: %w", r.meta.Name, i, err)
	}
	if crc32.ChecksumIEEE(comp) != idx.crc {
		return nil, fmt.Errorf("segstore: segment %s block %d: CRC mismatch", r.meta.Name, i)
	}
	// The footer records the exact raw size, so decompress into a
	// pre-sized buffer instead of io.ReadAll's grow-and-copy loop.
	bodyBuf := getBlockBuf(idx.rawBytes)
	defer putBlockBuf(bodyBuf)
	body := *bodyBuf
	fr := getFlateReader(bytes.NewReader(comp))
	if _, err := io.ReadFull(fr, body); err != nil {
		return nil, fmt.Errorf("segstore: segment %s block %d: decompress: %w", r.meta.Name, i, err)
	}
	var extra [1]byte
	if n, _ := fr.Read(extra[:]); n != 0 {
		return nil, fmt.Errorf("segstore: segment %s block %d: raw size mismatch", r.meta.Name, i)
	}
	putFlateReader(fr)
	return decodeBlock(idx.contributor, body)
}
