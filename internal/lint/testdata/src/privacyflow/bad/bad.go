// Package bad exercises the interprocedural privacyflow analyzer: taint
// that crosses two helper frames, an interface dispatch, or a decoder
// call before reaching a consumer response shape is still proven, and
// the per-package releasepath rules (storage import ban, raw accessor
// calls) fire unchanged.
package bad

import (
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/storage" // want "imports sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

type queryResp struct {
	Segments []*wavesegment.Segment
}

// leakDeep ships raw segments that were scanned two helper frames below:
// the summary-based propagation must carry the taint up through level1
// and level2 and report the full call chain.
func leakDeep(svc *datastore.Service) queryResp {
	segs := level1(svc)
	return queryResp{Segments: segs} // want "raw"
}

func level1(svc *datastore.Service) []*wavesegment.Segment {
	return level2(svc)
}

func level2(svc *datastore.Service) []*wavesegment.Segment {
	st := svc.Storage()                          // want "datastore.Storage"
	results, err := st.ScanRefs(storage.Query{}) // want "call to storage.ScanRefs"
	if err != nil {
		return nil
	}
	segs := make([]*wavesegment.Segment, 0, len(results))
	for _, res := range results {
		segs = append(segs, res.Segment)
	}
	return segs
}

// scanner is resolved by method-set matching against the package's
// concrete types: the analyzer must see through the dispatch to
// rawSource.Fetch and its transitive scan.
type scanner interface {
	Fetch() []*wavesegment.Segment
}

type rawSource struct {
	svc *datastore.Service
}

func (r rawSource) Fetch() []*wavesegment.Segment {
	return level2(r.svc)
}

func leakDispatch(s scanner) queryResp {
	return queryResp{Segments: s.Fetch()} // want "raw"
}

// leakDecode mints a raw segment from bytes: the wavesegment decoders
// are sources just like the storage engines.
func leakDecode(data []byte) queryResp {
	seg, err := wavesegment.UnmarshalJSONSegment(data)
	if err != nil {
		return queryResp{}
	}
	return queryResp{Segments: []*wavesegment.Segment{seg}} // want "raw"
}
