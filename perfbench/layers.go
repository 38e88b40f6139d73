package main

// Per-layer metrics of the traced run. Every metric is reported on every
// workload; a layer a workload does not exercise reads 0 there (see
// predictions.json for which workload each metric is meant to move).

import (
	"sync"
	"time"

	"twinsearch"
)

// layerObs holds run-level observations: set-up costs and the
// measurements taken outside the load.
type layerObs struct {
	mu sync.Mutex
	v  map[string][]float64
}

func newLayerObs() *layerObs { return &layerObs{v: make(map[string][]float64)} }

func (o *layerObs) add(name string, v float64) {
	o.mu.Lock()
	o.v[name] = append(o.v[name], v)
	o.mu.Unlock()
}

func (o *layerObs) median(name string) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return median(o.v[name])
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"engine.plan_us":              "us",
	"engine.overhead_us":          "us",
	"engine.append_ms":            "ms",
	"engine.refreeze_ms":          "ms",
	"qcache.plan_hit_ratio":       "ratio",
	"qcache.result_hit_ratio":     "ratio",
	"qcache.result_evictions":     "count",
	"qcache.result_bytes":         "bytes",
	"server.overhead_ms":          "ms",
	"server.resp_bytes":           "bytes",
	"server.resp_bytes_per_match": "B/match",
	"server.shed":                 "count",
	"shard.traverse_ms":           "ms",
	"shard.merge_ms":              "ms",
	"shard.matches":               "count",
	"shard.skew":                  "ratio",
	"exec.steals":                 "count",
	"exec.queue_wait_us":          "us",
	"exec.unit_ms_max":            "ms",
	"core.nodes_visited":          "count",
	"core.nodes_pruned":           "count",
	"core.prune_ratio":            "ratio",
	"core.leaves_reached":         "count",
	"core.candidates":             "count",
	"core.abandons":               "count",
	"core.useful_ratio":           "ratio",
	"core.kernel_calls":           "count",
	"core.build_s":                "s",
	"cluster.rpc_bytes_out":       "bytes",
	"cluster.rpc_bytes_in":        "bytes",
	"cluster.node_ms":             "ms",
	"cluster.coord_overhead_ms":   "ms",
	"cluster.failovers":           "count",
	"arena.open_ms":               "ms",
	"loadgen.late_p99_ms":         "ms",
	"loadgen.open_p50_ms":         "ms",
	"loadgen.open_p99_ms":         "ms",
	"trace.overhead_frac":         "ratio",
	"trace.unattributed_frac":     "ratio",
}

// Counts the replays add to a request (see countStats).
var coreCounts = []string{"core.nodes_visited", "core.nodes_pruned", "core.leaves_reached", "core.candidates", "core.abandons", "core.results"}

// layerMetrics turns the traced phase's spans and counts, the untraced
// phase before it (base), the open-loop phase (open; empty for a workload
// without one) and the run-level observations into the per-layer
// metrics. Times are medians over requests, counts are means
// per request that has them, ratios are ratios of totals.
func layerMetrics(reqs []*reqTrace, lo *layerObs, base, traced, open *loadResult, ss0, ss1 twinsearch.ServingStats) map[string]metric {
	v := make(map[string]float64)
	durs := make(map[string][]float64)       // ms, longest span of the layer per request
	selfs := make(map[string][]float64)      // ms, every request
	rangeSelfs := make(map[string][]float64) // ms, range requests
	sums := make(map[string]float64)
	has := make(map[string]int)
	var serverOver []float64
	var roots []time.Duration // traced queries' own wall time, replays excluded
	selfTotal := make(map[string]time.Duration)
	var wall time.Duration
	for _, r := range reqs {
		spans, counts, failed := r.snapshot()
		if failed {
			continue
		}
		longest := make(map[string]time.Duration)
		for _, s := range spans {
			if s.dur() > longest[s.Layer] {
				longest[s.Layer] = s.dur()
			}
		}
		for layer, d := range longest {
			durs[layer] = append(durs[layer], ms(d))
		}
		if c, ok := longest["client"]; ok {
			if e, ok := longest["engine"]; ok {
				serverOver = append(serverOver, ms(c-e))
			}
		}
		self, w, ok := pathTimes(spans)
		if ok {
			for layer, d := range self {
				selfTotal[layer] += d
				selfs[layer] = append(selfs[layer], ms(d))
				if r.kind == kindRange {
					rangeSelfs[layer] = append(rangeSelfs[layer], ms(d))
				}
			}
			wall += w
			if r.kind != kindAppend {
				roots = append(roots, w)
			}
		}
		for k, c := range counts {
			sums[k] += c
			has[k]++
		}
	}
	mean := func(k string) float64 {
		if has[k] == 0 {
			return 0
		}
		return sums[k] / float64(has[k])
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v["engine.plan_us"] = 1000 * median(durs["engine.plan"])
	v["engine.overhead_us"] = 1000 * median(rangeSelfs["engine"])
	v["engine.append_ms"] = lo.median("engine.append_ms")
	v["engine.refreeze_ms"] = lo.median("engine.refreeze_ms")

	if ss1.Plan.Enabled {
		h, m := float64(ss1.Plan.Hits-ss0.Plan.Hits), float64(ss1.Plan.Misses-ss0.Plan.Misses)
		v["qcache.plan_hit_ratio"] = ratio(h, h+m)
	}
	if ss1.Result.Enabled {
		h, m := float64(ss1.Result.Hits-ss0.Result.Hits), float64(ss1.Result.Misses-ss0.Result.Misses)
		v["qcache.result_hit_ratio"] = ratio(h, h+m)
		v["qcache.result_evictions"] = float64(ss1.Result.Evictions - ss0.Result.Evictions)
		v["qcache.result_bytes"] = float64(ss1.Result.Bytes)
	}

	v["server.overhead_ms"] = median(serverOver)
	v["server.resp_bytes"] = mean("server.resp_bytes")
	v["server.resp_bytes_per_match"] = ratio(sums["server.resp_bytes"], sums["server.matches"])
	v["server.shed"] = float64(base.shed + traced.shed + open.shed)

	v["shard.traverse_ms"] = median(durs["shard.traverse"])
	v["shard.merge_ms"] = median(durs["shard.merge"])
	v["shard.matches"] = mean("shard.matches")
	v["shard.skew"] = ratio(sums["shard.skew"], float64(has["shard.skew"]))

	v["exec.steals"] = mean("exec.steals")
	v["exec.queue_wait_us"] = ratio(sums["exec.queue_wait_us"], sums["exec.units"])
	v["exec.unit_ms_max"] = median(durs["exec.unit"])

	for _, k := range coreCounts {
		if k != "core.results" {
			v[k] = mean(k)
		}
	}
	v["core.prune_ratio"] = ratio(sums["core.nodes_pruned"], sums["core.nodes_visited"])
	v["core.useful_ratio"] = ratio(sums["core.results"], sums["core.candidates"])
	v["core.kernel_calls"] = mean("core.nodes_visited") + mean("core.candidates")
	v["core.build_s"] = lo.median("core.build_s")

	v["cluster.rpc_bytes_out"] = mean("cluster.rpc_bytes_out")
	v["cluster.rpc_bytes_in"] = mean("cluster.rpc_bytes_in")
	v["cluster.node_ms"] = median(durs["cluster.node"])
	v["cluster.coord_overhead_ms"] = median(selfs["coord"])
	v["cluster.failovers"] = lo.median("cluster.failovers")
	v["arena.open_ms"] = lo.median("arena.open_ms")

	v["loadgen.late_p99_ms"] = ms(pct(open.late, 0.99))
	v["loadgen.open_p50_ms"] = ms(pct(queries(open), 0.50))
	v["loadgen.open_p99_ms"] = ms(pct(queries(open), 0.99))
	// A traced query's root span is its call into the workload's entry
	// layer; the replays the benchmark runs after it fall outside.
	if b := pct(queries(base), 0.5); b > 0 {
		v["trace.overhead_frac"] = float64(pct(roots, 0.5))/float64(b) - 1
	}
	v["trace.unattributed_frac"] = unattributed(selfTotal, wall)

	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{v[name], unit}
	}
	return out
}
