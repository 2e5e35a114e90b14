// Package clean shows the sanctioned egress the privacyflow analyzer
// must accept: segments that pass through the abstraction release
// pipeline are clean, even when the helper-chain shape mirrors the bad
// fixture's leak exactly.
package clean

import (
	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

type queryResp struct {
	Releases []*abstraction.Release
	Segments []*wavesegment.Segment
}

// released ships the enforcement pipeline's output through the same
// two-level helper chain the bad fixture leaks through.
func released(rels []*abstraction.Release) queryResp {
	return queryResp{Releases: rels, Segments: level1(rels)}
}

func level1(rels []*abstraction.Release) []*wavesegment.Segment {
	return level2(rels)
}

func level2(rels []*abstraction.Release) []*wavesegment.Segment {
	var segs []*wavesegment.Segment
	for _, rel := range rels {
		segs = append(segs, rel.Segment)
	}
	return segs
}

// sanitized decodes a raw segment — tainted at birth — but launders it
// through abstraction.EnforceExplained before it reaches the response: the
// sanitizer axiom must cut the flow.
func sanitized(e rules.Decider, data []byte, gc geo.Geocoder) (queryResp, error) {
	seg, err := wavesegment.UnmarshalJSONSegment(data)
	if err != nil {
		return queryResp{}, err
	}
	rels, _, err := abstraction.EnforceExplained(e, "consumer", nil, seg, gc)
	if err != nil {
		return queryResp{}, err
	}
	var segs []*wavesegment.Segment
	for _, rel := range rels {
		segs = append(segs, rel.Segment)
	}
	return queryResp{Releases: rels, Segments: segs}, nil
}

// direct wraps released segments in a container literal: wrapping clean
// values must not mint taint.
func direct(rels []*abstraction.Release) queryResp {
	return queryResp{Segments: []*wavesegment.Segment{rels[0].Segment}}
}
