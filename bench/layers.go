package main

import (
	"context"
	"time"
)

// layerInputs carries what the end-to-end accounting already worked out
// into the per-layer report.
type layerInputs struct {
	lat, upLat, qLat, delLat, searchLat, late []float64 // ms
	sheds, rowsMoved                          int
	walReplayed                               float64
	logBytes                                  int64
	genCPU                                    time.Duration
	store                                     [2]procSample // before, after
	recoveryS                                 []float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// client fills in what a user of each op kind saw. Both kinds of run report
// it: the end-to-end run with the bench's spans off, for the ledger and
// -diff; the traced run as the "client" layer.
func (res *result) client(m measured, li layerInputs) {
	res.set("client.upload_p50_ms", median(li.upLat), len(li.upLat))
	res.set("client.query_p50_ms", median(li.qLat), len(li.qLat))
	res.set("client.stream_delivery_p50_ms", median(li.delLat), len(li.delLat))
	for name, xs := range map[string][]float64{"client.upload_p95_ms": li.upLat, "client.query_p95_ms": li.qLat, "client.stream_delivery_p95_ms": li.delLat} {
		p95 := 0.0
		if supports(len(xs), 0.95) {
			p95 = quantileOf(xs, 0.95)
		}
		res.set(name, p95, len(xs))
	}
	res.set("client.shed_resends_total", float64(li.sheds+m.pollSheds), li.sheds+m.pollSheds)
	// Every send of an issued op is a request; one that was shed, or that
	// ended the op with an error or a wrong answer, did not succeed.
	res.set("client.failed_ops_ratio", float64(res.Failed+li.sheds)/float64(res.Attempted+li.sheds), res.Attempted+li.sheds)
	res.set("client.revocation_violations", float64(m.violations), m.violations)
	res.set("client.recovery_s", median(li.recoveryS), len(li.recoveryS))
	res.set("client.server_peak_rss_mb", float64(li.store[1].PeakRSSBytes)/(1<<20), 1)
}

// layers fills in the per-layer metrics only a traced run has: the numbers
// the servers report about themselves (prom, dbg), what /proc says, and the
// in-process ladder.
func (res *result) layers(ctx context.Context, e *env, st *stack, in *inputs, m measured, ob *observer, tr *tracer, li layerInputs) error {
	// Every catalogue entry is reported; one that does not apply to this
	// workload (no broker, no stream, no reads) reads 0.
	for _, spec := range layerMetrics {
		if _, done := res.Metrics[spec.Name]; !done {
			res.set(spec.Name, 0, 0)
		}
	}
	ops := float64(res.Attempted)
	res.set("client.traced_op_p50_ms", median(li.lat), len(li.lat))

	// prom: the store's /metrics, after minus before.
	d := promDelta{ob.before, ob.after}
	requests := d.sum("sensorsafe_http_requests_total", "component", "store")
	res.set("httpapi.non200_total", requests-d.sum("sensorsafe_http_requests_total", "component", "store", "status", "200"), int(requests))
	packetsIn := d.sum("sensorsafe_datastore_upload_segments_total")
	res.set("wavesegment.merge_ratio", ratio(packetsIn, packetsIn-d.sum("sensorsafe_datastore_segments_merged_total")), int(packetsIn))
	res.set("overload.shed_brownout_total", d.sum("sensorsafe_overload_shed_total", "component", "store", "reason", "brownout"), 0)
	res.set("overload.shed_capacity_total", d.sum("sensorsafe_overload_shed_total", "component", "store", "reason", "capacity"), 0)
	res.set("overload.queue_wait_p95_ms", 1000*d.quantile(0.95, "sensorsafe_overload_queue_wait_seconds", "component", "store"),
		int(d.sum("sensorsafe_overload_queue_wait_seconds_count", "component", "store")))
	releases := d.sum("sensorsafe_datastore_releases_total")
	res.set("datastore.scanned_per_release", ratio(d.sum("sensorsafe_datastore_segments_scanned_total"), releases), int(releases))
	for metric, span := range map[string]string{
		"datastore.span_upload_ms": "datastore.upload", "datastore.span_query_ms": "datastore.query", "datastore.span_rule_eval_ms": "datastore.rule_eval",
	} {
		res.set(metric, 1000*d.mean("sensorsafe_span_seconds", "span", span), int(d.sum("sensorsafe_span_seconds_count", "span", span)))
	}
	res.set("segstore.flushes_total", d.sum("sensorsafe_segstore_flushes_total"), 0)
	res.set("segstore.compactions_total", d.sum("sensorsafe_segstore_compactions_total"), 0)
	hits, misses := d.sum("sensorsafe_ruleindex_cache_total", "result", "hit"), d.sum("sensorsafe_ruleindex_cache_total", "result", "miss")
	res.set("ruleindex.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	decisions := d.sum("sensorsafe_ruleindex_decisions_total")
	res.set("ruleindex.decisions_per_op", decisions/ops, int(decisions))
	res.set("ruleindex.compile_ms", 1000*d.mean("sensorsafe_ruleindex_compile_seconds"), int(d.sum("sensorsafe_ruleindex_compile_seconds_count")))
	// Each release decision is one audit event (delivered or withheld).
	res.set("audit.events_per_op", releases/ops, int(releases))
	res.set("stream.hub_delivery_p95_ms", 1000*d.quantile(0.95, "sensorsafe_stream_delivery_seconds"), int(d.sum("sensorsafe_stream_delivery_seconds_count")))
	res.set("stream.lagging_max", ob.after.sum("sensorsafe_stream_lagging_subscribers"), 1)
	res.set("stream.gap_events_total", float64(m.gaps), m.gaps)

	// dbg: /healthz and /debug/segstore polled during the window.
	res.set("overload.unhealthy_share", ratio(float64(ob.unhealthy), float64(ob.polls)), ob.polls)
	res.set("overload.pressure_max", ob.pressureMax, ob.polls)
	res.set("segstore.l0_files_max", float64(ob.l0Max), ob.polls)
	res.set("segstore.wal_bytes_max", float64(ob.walMax), ob.polls)
	res.set("segstore.compact_last_ms", float64(ob.segstore.LastCompactMS), 1)
	res.set("segstore.wal_replayed", li.walReplayed, 1)
	var diskBytes, rawBytes float64
	for _, lv := range ob.segstore.Levels {
		diskBytes += float64(lv.Bytes)
		rawBytes += float64(lv.RawBytes)
	}
	res.set("segstore.compression_ratio", ratio(rawBytes, diskBytes), len(ob.segstore.Levels))
	res.set("segstore.space_amp", ratio(float64(ob.segstore.DiskRecords), float64(ob.segstore.DiskRecords-ob.segstore.Tombstones)), ob.segstore.DiskRecords)

	// proc and the clients.
	before, after := li.store[0], li.store[1]
	res.set("proc.store_cpu_user_s", (after.User - before.User).Seconds(), 1)
	res.set("proc.store_cpu_sys_s", (after.Sys - before.Sys).Seconds(), 1)
	res.set("proc.store_io_read_mb", float64(after.ReadBytes-before.ReadBytes)/(1<<20), 1)
	res.set("proc.store_io_write_mb", float64(after.WriteBytes-before.WriteBytes)/(1<<20), 1)
	res.set("proc.gen_cpu_s", li.genCPU.Seconds(), 1)
	res.set("proc.gen_lateness_p95_ms", quantileOf(li.late, 0.95), len(li.late))
	res.set("segstore.write_amp", ratio(float64(after.WriteBytes-before.WriteBytes), float64(m.uploadedValueBytes)), int(m.uploadedValueBytes))
	res.set("httpapi.request_bytes_per_op", float64(m.sentBytes)/ops, res.Attempted)
	res.set("httpapi.response_bytes_per_op", float64(m.wireBytes-m.sentBytes)/ops, res.Attempted)
	res.set("obs.log_bytes_per_op", float64(li.logBytes)/ops, res.Attempted)

	if st.broker != nil {
		bd := promDelta{ob.brokerBefore, ob.brokerAfter}
		res.set("broker.search_ms", median(li.searchLat), len(li.searchLat))
		res.set("broker.connect_ms", st.connectMS, 2)
		res.set("broker.sync_rules_ms", 1000*bd.mean("sensorsafe_http_request_seconds", "component", "broker", "route", "/api/sync"),
			int(bd.sum("sensorsafe_http_request_seconds_count", "component", "broker", "route", "/api/sync")))
		res.set("broker.cpu_ms_per_op", ms(ob.brokerProc[1].cpu()-ob.brokerProc[0].cpu())/ops, res.Attempted)
	}

	return runLadder(ctx, e, in, st.workload, tr, res)
}
