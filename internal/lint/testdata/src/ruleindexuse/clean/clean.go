// Package clean shows the sanctioned evaluation paths: the rules.Decider
// seam (which the compiled index implements) and a justified direct call
// under an ignore directive.
package clean

import (
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/rules"
)

func decideViaSeam(d rules.Decider, req *rules.Request) *rules.Decision {
	return d.Decide(req)
}

func decideViaIndex(ix *ruleindex.Index, req *rules.Request) *rules.Decision {
	return ix.Decide(req)
}

func differentialCheck(e *rules.Engine, ix *ruleindex.Index, req *rules.Request) bool {
	//sslint:ignore ruleindexuse differential correctness probe against the linear engine
	want := e.Decide(req)
	return want.SharesAnything() == ix.Decide(req).SharesAnything()
}
