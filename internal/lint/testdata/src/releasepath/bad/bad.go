// Package bad exercises the releasepath analyzer: importing the raw
// storage layer, calling raw accessors, and letting unreleased segments
// reach a consumer response shape are all flagged.
package bad

import (
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/storage" // want "imports sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

type queryResp struct {
	Segments []*wavesegment.Segment
}

func leak(svc *datastore.Service) queryResp {
	segs := rawScan(svc)
	return queryResp{Segments: segs} // want "raw"
}

func rawScan(svc *datastore.Service) []*wavesegment.Segment {
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
