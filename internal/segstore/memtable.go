package segstore

import (
	"sort"

	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// memtable is the bounded hot tail: recent writes absorbed from the WAL,
// held sorted so flushes and scans stream it in (start, id) order.
// Not safe for concurrent use; the Store guards it with its mutex.
type memtable struct {
	byID    map[storage.ID]*wavesegment.Segment
	byStart []rec // sorted by (StartTime, id)
	bytes   int64 // encoded size of the packets absorbed
	// tails maps each stream (Segment.StreamKey) to its newest record
	// here, the latest-starting one, which a continuing Put extends; a
	// late packet does not displace it. A flush starts a fresh map:
	// compaction joins records a memtable boundary cut.
	tails   map[string]storage.ID
	lastSeq uint64 // WAL seq of the latest record absorbed
}

func newMemtable() *memtable {
	return &memtable{
		byID:  make(map[storage.ID]*wavesegment.Segment),
		tails: make(map[string]storage.ID),
	}
}

func (m *memtable) len() int { return len(m.byID) }

// search returns the insertion index for (start, id) in byStart.
func (m *memtable) search(start int64, id storage.ID) int {
	return sort.Search(len(m.byStart), func(i int) bool {
		si := m.byStart[i].seg.StartTime().UnixNano()
		if si != start {
			return si > start
		}
		return m.byStart[i].id >= id
	})
}

// put inserts a new record and tracks the WAL sequence that produced it.
func (m *memtable) put(id storage.ID, seg *wavesegment.Segment, seq uint64, encodedLen int) {
	key := seg.StreamKey()
	if tail, ok := m.tails[key]; !ok || seg.StartTime().After(m.byID[tail].StartTime()) {
		m.tails[key] = id
	}
	m.byID[id] = seg
	i := m.search(seg.StartTime().UnixNano(), id)
	m.byStart = append(m.byStart, rec{})
	copy(m.byStart[i+1:], m.byStart[i:])
	m.byStart[i] = rec{id: id, seg: seg}
	m.absorbed(seq, encodedLen)
}

// extension returns the newest record of seg's stream and seg joined onto
// it, when seg continues that record within maxSamples samples. Nothing
// changes until extend applies the result.
func (m *memtable) extension(seg *wavesegment.Segment, maxSamples int) (storage.ID, *wavesegment.Segment, bool) {
	id, ok := m.tails[seg.StreamKey()]
	if !ok {
		return 0, nil, false
	}
	joined, ok := wavesegment.Extend(m.byID[id], seg, maxSamples)
	return id, joined, ok
}

// extend swaps record id's segment for joined, which starts where the old
// one did. The old segment is left intact for scans that still hold it.
func (m *memtable) extend(id storage.ID, joined *wavesegment.Segment, seq uint64, encodedLen int) {
	m.byID[id] = joined
	m.byStart[m.search(joined.StartTime().UnixNano(), id)].seg = joined
	m.absorbed(seq, encodedLen)
}

// delete removes a record if present; returns whether it was held here.
func (m *memtable) delete(id storage.ID, seq uint64) bool {
	seg, ok := m.byID[id]
	if !ok {
		return false
	}
	delete(m.byID, id)
	if key := seg.StreamKey(); m.tails[key] == id {
		delete(m.tails, key)
	}
	i := m.search(seg.StartTime().UnixNano(), id)
	m.byStart = append(m.byStart[:i], m.byStart[i+1:]...)
	m.absorbed(seq, 0)
	return true
}

// absorbed accounts one WAL record and its encoded payload.
func (m *memtable) absorbed(seq uint64, encodedLen int) {
	m.bytes += int64(encodedLen)
	if seq > m.lastSeq {
		m.lastSeq = seq
	}
}

// sorted returns the underlying (start, id)-ordered records. Callers
// must not mutate the slice; copy before releasing the Store lock.
func (m *memtable) sorted() []rec { return m.byStart }
