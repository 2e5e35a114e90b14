package ruleindex

import "sensorsafe/internal/obs"

// Index observability: cache effectiveness, compile cost, and how many
// decisions release paths asked of the index.
var (
	metricCache = obs.NewCounterVec("sensorsafe_ruleindex_cache_total",
		"Decision-cache activity on the compiled rule index, by result (hit/miss/evict).",
		"result")
	metricDecisions = obs.NewCounter("sensorsafe_ruleindex_decisions_total",
		"Rule decisions evaluated on release paths by the compiled index.")
	metricCompile = obs.NewHistogram("sensorsafe_ruleindex_compile_seconds",
		"Time to compile one contributor's rule set into the indexed evaluation plan.",
		nil)
)
