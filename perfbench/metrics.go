package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are what the untraced run reports, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"medges_per_s", "Medges/s"},
	{"alloc_mb_per_job", "MB"},
	{"resident_mb", "MB"},
}

// perLayerMetrics are what the traced run reports, on every workload; a
// layer the workload does not exercise reads 0.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"graph.ingest_ms", "ms"},
		{"graph.ingest_alloc_ratio", "ratio"},
		{"partition.ms", "ms"},
		{"partition.replication_factor", "ratio"},
		{"runtime.new_cluster_ms", "ms"},
		{"runtime.host_skew_ms", "ms"},
		{"runtime.compute_ms", "ms"},
		{"runtime.request_ms", "ms"},
		{"runtime.reduce_ms", "ms"},
		{"runtime.broadcast_ms", "ms"},
		{"comm.msgs_per_job", "count"},
		{"comm.mb_per_job", "MB"},
	}
	for _, tag := range []string{"request", "response", "reduce", "broadcast", "barrier", "app"} {
		defs = append(defs, metricDef{"comm.bytes." + tag, "bytes"})
	}
	defs = append(defs,
		metricDef{"comm.recv_wait_ms", "ms"},
		metricDef{"comm.send_ms", "ms"},
		metricDef{"npm.remote_read_frac", "ratio"},
	)
	for _, a := range allAlgos {
		p := "algorithms." + a
		defs = append(defs, metricDef{p + ".ms", "ms"}, metricDef{p + ".rounds", "count"})
		switch a {
		case algoCCSV, algoCCLP:
			defs = append(defs,
				metricDef{p + ".active_vertices", "count"},
				metricDef{p + ".async_rounds", "count"},
				metricDef{p + ".pull_rounds", "count"})
		case algoLouvain:
			defs = append(defs, metricDef{p + ".modularity", "ratio"})
		}
	}
	return append(defs,
		metricDef{"gc.cycles_per_job", "count"},
		metricDef{"gc.pause_ms_per_job", "ms"},
		metricDef{"baselines.galois_ms", "ms"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"trace.algo_cover_frac", "ratio"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics of defs from values, checking that each is
// present and finite.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: no finite value (%v)", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// summary formats metrics for standard error, one per line.
func summary(defs []metricDef, m map[string]metricValue) string {
	var b strings.Builder
	for _, d := range defs {
		fmt.Fprintf(&b, "  %-36s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
	return b.String()
}
