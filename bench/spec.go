package main

// The metric catalogue: every name the bench prints, with its unit, the
// direction that is better, and for end-to-end metrics the regression
// bound. BENCHMARK.json repeats it for the driver; a test keeps the two
// equal.

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median the metric may worsen by; end-to-end only
}

var workloadNames = []string{"ingest_bulk", "query_point", "query_range", "live_mixed"}

// e2eMetrics are reported, every one on every workload, by a run with the
// bench's own spans off.
var e2eMetrics = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},
	{"wire_bytes_per_sample", "B", "lower", 0.10},
	{"disk_bytes_per_sample", "B", "lower", 0.10},
}

// layerMetrics are reported by a traced run. The prefix is the layer: a
// package of the repo, "proc" for the operating system's view of the
// processes, or "client" for a user-visible number that the driver cannot
// bound on every workload: it applies to some workloads only, or (recovery
// time, peak memory) varies between identical runs by more than any bound
// allowed. The client metrics are also reported, spans off, by the
// end-to-end run, where -diff judges the ones listed in liveJudged.
var layerMetrics = []metricSpec{
	{"client.upload_p50_ms", "ms", "lower", 0},
	{"client.upload_p95_ms", "ms", "lower", 0},
	{"client.query_p50_ms", "ms", "lower", 0},
	{"client.query_p95_ms", "ms", "lower", 0},
	{"client.stream_delivery_p50_ms", "ms", "lower", 0},
	{"client.stream_delivery_p95_ms", "ms", "lower", 0},
	{"client.shed_resends_total", "count", "lower", 0},
	{"client.failed_ops_ratio", "ratio", "lower", 0},
	{"client.revocation_violations", "count", "lower", 0},
	{"client.traced_op_p50_ms", "ms", "lower", 0},
	{"client.recovery_s", "s", "lower", 0},
	{"client.server_peak_rss_mb", "MB", "lower", 0},

	{"httpapi.wire_self_ms", "ms", "lower", 0},
	{"httpapi.handler_self_ms", "ms", "lower", 0},
	{"httpapi.share", "ratio", "lower", 0},
	{"httpapi.request_bytes_per_op", "B", "lower", 0},
	{"httpapi.response_bytes_per_op", "B", "lower", 0},
	{"httpapi.non200_total", "count", "lower", 0},

	{"wavesegment.json_encode_ns_per_sample", "ns", "lower", 0},
	{"wavesegment.json_decode_ns_per_sample", "ns", "lower", 0},
	{"wavesegment.binary_encode_ns_per_sample", "ns", "lower", 0},
	{"wavesegment.binary_bytes_per_sample", "B", "lower", 0},
	{"wavesegment.optimize_us_per_packet", "us", "lower", 0},
	{"wavesegment.slice_us", "us", "lower", 0},
	{"wavesegment.merge_ratio", "ratio", "higher", 0},

	{"overload.admit_us", "us", "lower", 0},
	{"overload.shed_brownout_total", "count", "lower", 0},
	{"overload.shed_capacity_total", "count", "lower", 0},
	{"overload.queue_wait_p95_ms", "ms", "lower", 0},
	{"overload.unhealthy_share", "ratio", "lower", 0},
	{"overload.pressure_max", "ratio", "lower", 0},

	{"datastore.upload_self_ms", "ms", "lower", 0},
	{"datastore.query_self_ms", "ms", "lower", 0},
	{"datastore.set_rules_ms", "ms", "lower", 0},
	{"datastore.scanned_per_release", "ratio", "lower", 0},
	{"datastore.span_upload_ms", "ms", "lower", 0},
	{"datastore.span_query_ms", "ms", "lower", 0},
	{"datastore.span_rule_eval_ms", "ms", "lower", 0},

	{"segstore.put_us", "us", "lower", 0},
	{"segstore.scan_ms", "ms", "lower", 0},
	{"segstore.open_ms", "ms", "lower", 0},
	{"segstore.flushes_total", "count", "lower", 0},
	{"segstore.compactions_total", "count", "lower", 0},
	{"segstore.l0_files_max", "count", "lower", 0},
	{"segstore.compact_last_ms", "ms", "lower", 0},
	{"segstore.wal_bytes_max", "B", "lower", 0},
	{"segstore.wal_replayed", "count", "lower", 0},
	{"segstore.compression_ratio", "ratio", "higher", 0},
	{"segstore.space_amp", "ratio", "lower", 0},
	{"segstore.write_amp", "ratio", "lower", 0},

	{"ruleindex.decide_us", "us", "lower", 0},
	{"ruleindex.cache_hit_ratio", "ratio", "higher", 0},
	{"ruleindex.decisions_per_op", "count", "lower", 0},
	{"ruleindex.compile_ms", "ms", "lower", 0},

	{"abstraction.enforce_us_per_segment", "us", "lower", 0},
	{"abstraction.releases_per_segment", "count", "lower", 0},

	{"audit.record_us", "us", "lower", 0},
	{"audit.events_per_op", "count", "lower", 0},

	{"stream.publish_us", "us", "lower", 0},
	{"stream.next_ms", "ms", "lower", 0},
	{"stream.hub_delivery_p95_ms", "ms", "lower", 0},
	{"stream.gap_events_total", "count", "lower", 0},
	{"stream.lagging_max", "count", "lower", 0},

	{"broker.search_ms", "ms", "lower", 0},
	{"broker.connect_ms", "ms", "lower", 0},
	{"broker.sync_rules_ms", "ms", "lower", 0},
	{"broker.cpu_ms_per_op", "ms", "lower", 0},

	{"obs.log_bytes_per_op", "B", "lower", 0},
	{"obs.trace_overhead_ratio", "ratio", "lower", 0},

	{"proc.store_cpu_user_s", "s", "lower", 0},
	{"proc.store_cpu_sys_s", "s", "lower", 0},
	{"proc.store_io_read_mb", "MB", "lower", 0},
	{"proc.store_io_write_mb", "MB", "lower", 0},
	{"proc.gen_cpu_s", "s", "lower", 0},
	{"proc.gen_lateness_p95_ms", "ms", "lower", 0},
}

// judged is one (workload, metric) pair -diff gives a verdict on.
type judged struct {
	Workload string
	metricSpec
	// Absolute bounds the difference itself, in the metric's unit, instead
	// of its share of the baseline: a ratio near 0 has no meaningful share.
	Absolute bool
}

// liveJudged are the client metrics -diff judges beside the end-to-end
// ones, on live_mixed only: the one workload with a stream, with shedding,
// and with an op_p50_ms that blends four kinds of op.
var liveJudged = []judged{
	{"live_mixed", metricSpec{"client.upload_p50_ms", "ms", "lower", 0.25}, false},
	{"live_mixed", metricSpec{"client.query_p50_ms", "ms", "lower", 0.25}, false},
	{"live_mixed", metricSpec{"client.stream_delivery_p50_ms", "ms", "lower", 0.25}, false},
	{"live_mixed", metricSpec{"client.failed_ops_ratio", "ratio", "lower", 0.03}, true},
}

// judgedMetrics lists every pair -diff compares, a workload at a time.
func judgedMetrics() []judged {
	var out []judged
	for _, w := range workloadNames {
		for _, m := range e2eMetrics {
			out = append(out, judged{Workload: w, metricSpec: m})
		}
		for _, j := range liveJudged {
			if j.Workload == w {
				out = append(out, j)
			}
		}
	}
	return out
}

// layerSpec is the prediction written down before anything was measured:
// which user-visible numbers a layer's metrics should move, on which
// workloads, and on which workloads (they bypass the layer) they should not.
// BENCHMARK.json has no field for it, so it lives here and is printed with
// every traced run.
type layerSpec struct {
	Layer string
	Moves []string
	On    []string
	NotOn []string
}

var layerSpecs = []layerSpec{
	{"httpapi", []string{"op_p50_ms", "samples_per_s", "wire_bytes_per_sample", "client.server_peak_rss_mb"}, []string{"query_range", "ingest_bulk"}, []string{"query_point"}},
	{"wavesegment", []string{"op_p50_ms", "samples_per_s", "disk_bytes_per_sample"}, []string{"query_range", "ingest_bulk"}, []string{"live_mixed"}},
	{"overload", []string{"client.failed_ops_ratio", "client.stream_delivery_p50_ms", "op_p90_ms", "setup_s"}, []string{"live_mixed", "query_point", "query_range"}, []string{"ingest_bulk"}},
	{"datastore", []string{"op_p50_ms"}, []string{"ingest_bulk", "query_point"}, nil},
	{"segstore", []string{"op_p50_ms", "server_cpu_ms_per_op", "samples_per_s", "disk_bytes_per_sample", "client.recovery_s", "setup_s"}, []string{"query_point", "ingest_bulk"}, []string{"query_range"}},
	{"ruleindex", []string{"op_p50_ms", "client.query_p50_ms"}, []string{"query_point", "live_mixed"}, []string{"ingest_bulk"}},
	{"abstraction", []string{"op_p50_ms", "server_cpu_ms_per_op"}, []string{"query_point", "query_range"}, []string{"ingest_bulk"}},
	{"audit", []string{"op_p50_ms", "server_cpu_ms_per_op", "client.server_peak_rss_mb"}, []string{"query_point"}, []string{"query_range", "ingest_bulk"}},
	{"stream", []string{"client.stream_delivery_p50_ms", "client.upload_p50_ms"}, []string{"live_mixed"}, []string{"query_point", "query_range"}},
	{"broker", []string{"op_p90_ms"}, []string{"live_mixed"}, []string{"ingest_bulk", "query_point", "query_range"}},
	{"obs", []string{"server_cpu_ms_per_op"}, workloadNames, nil},
	// The user-visible numbers themselves, and the validity of the run.
	{"client", nil, workloadNames, nil},
	{"proc", nil, workloadNames, nil},
}

func layerSpecOf(layer string) (layerSpec, bool) {
	for _, l := range layerSpecs {
		if l.Layer == layer {
			return l, true
		}
	}
	return layerSpec{}, false
}

func specOf(name string) (metricSpec, bool) {
	for _, set := range [][]metricSpec{e2eMetrics, layerMetrics} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}
