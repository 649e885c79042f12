package main

// def is one metric as BENCHMARK.json declares it.
type def struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// metric is one measured value and the number of calls or samples
// behind it.
type metric struct {
	name  string
	value float64
	count int
}

// endToEndDefs are the untraced run's metrics, reported on every
// workload. On cold_sweep, p50_ms and p99_ms time the hot-read
// probe that runs beside the sweeps; on tier_churn, grid_s is one
// pass over the working set.
var endToEndDefs = []def{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"grid_s", "s", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"maxrss_mb", "MB", "lower", 0.25},
}

// perLayerDefs are the traced run's metrics.
func perLayerDefs() []def {
	defs := []def{
		{name: "http.transport_us", unit: "us", better: "lower"},
		{name: "serve.self_us", unit: "us", better: "lower"},
		{name: "memlru.get_us", unit: "us", better: "lower"},
		{name: "memlru.hit_ratio", unit: "ratio", better: "higher"},
		{name: "memlru.put_us", unit: "us", better: "lower"},
		{name: "store.get_us", unit: "us", better: "lower"},
		{name: "store.gets_per_op", unit: "count", better: "lower"},
		{name: "store.put_us", unit: "us", better: "lower"},
		{name: "objstore.get_us", unit: "us", better: "lower"},
		{name: "objstore.put_us", unit: "us", better: "lower"},
	}
	for _, id := range allIDs() {
		defs = append(defs, def{name: "experiments." + id + ".run_ms", unit: "ms", better: "lower"})
	}
	return append(defs,
		def{name: "sched.wait_ms", unit: "ms", better: "lower"},
		def{name: "sched.slot_util", unit: "ratio", better: "higher"},
		def{name: "sched.compute_ratio", unit: "ratio", better: "higher"},
		def{name: "result.encodes_per_op", unit: "count", better: "lower"},
		def{name: "go.allocs_per_op", unit: "count", better: "lower"},
		def{name: "go.bytes_per_op", unit: "B", better: "lower"},
		def{name: "error_ratio", unit: "ratio", better: "lower"},
		def{name: "trace.ops_per_s", unit: "1/s", better: "higher"},
		def{name: "trace.p50_ms", unit: "ms", better: "lower"},
		def{name: "trace.untraced_ops_per_s", unit: "1/s", better: "higher"},
		def{name: "trace.untraced_p50_ms", unit: "ms", better: "lower"},
	)
}

func unitOf(name string) string {
	for _, d := range append(endToEndDefs, perLayerDefs()...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
