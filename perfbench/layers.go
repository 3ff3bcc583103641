package main

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A workload that bypasses a layer reports 0 for it: live-halo
// never decodes a trace, the replay workloads never reach the daemon.
// README.md maps each one to the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"tracebin.decode_ns_per_record", "ns/record"},
	{"tracebin.decode_share", "ratio"},
	{"tracebin.bytes_per_event", "bytes/event"},
	{"trace.route_ns_per_event", "ns/event"},
	{"trace.route_share", "ratio"},
	{"trace.batch_fill", "events/call"},
	{"trace.analyzers_built", "count/op"},
	{"trace.evictions", "count/op"},
	{"core.analyze_ns_per_event", "ns/event"},
	{"core.analyze_share", "ratio"},
	{"core.epoch_end_ns_per_epoch", "ns/epoch"},
	{"core.max_nodes", "count"},
	{"heap.alloc_bytes_per_event", "bytes/event"},
	{"heap.gc_cycles_per_op", "cycles/op"},
	{"serve.queue_ms", "ms/session"},
	{"serve.ingest_ms", "ms/session"},
	{"serve.drain_ms", "ms/session"},
	{"serve.report_ms", "ms/session"},
	{"serve.transport_ms", "ms/session"},
	{"serve.rejects", "count"},
	{"obs.registry_overhead_ratio", "ratio"},
	{"rma.epoch_ms", "ms/run"},
	{"rma.max_nodes_per_process", "count"},
	{"rma.accesses_per_run", "count/run"},
	{"engine.overflows", "count/run"},
	{"engine.notif_batch_fill", "notifs/batch"},
	{"ledger.decode_ns_per_event", "ns/event"},
	{"ledger.route_ns_per_event", "ns/event"},
	{"ledger.analyze_b64_ns_per_event", "ns/event"},
	{"ledger.analyze_b1_ns_per_event", "ns/event"},
	{"ledger.accounted_share", "ratio"},
	{"ledger.flags", "count"},
	{"trace_overhead_ratio", "ratio"},
}

// layer sets a per-layer metric, with the unit the list gives it.
func (r *runReport) layer(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			r.set(name, v, m.unit)
			return
		}
	}
	panic("perfbench: unlisted per-layer metric " + name)
}

// fillLayers sets every per-layer metric the workload left unset to 0
// and puts them in the listed order.
func (r *runReport) fillLayers() {
	r.order = r.order[:0]
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; !ok {
			r.Metrics[m.name] = metric{Value: 0, Unit: m.unit}
		}
		r.order = append(r.order, m.name)
	}
}
