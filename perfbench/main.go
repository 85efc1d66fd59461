// Command perfbench is the repository's end-to-end benchmark. For one
// workload it generates a seeded input file, ingests it through the
// program's public path (graph.StreamBuilder, then runtime.NewCluster), and
// runs the workload's job, a fixed list of algorithm calls, back to back
// for a fixed time, checking every job's outputs against sequential
// references.
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// a separate traced run and reports the per-layer metrics, writing its
// spans as JSON. See README.md for the workloads and metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 212, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options are the run's settings. The flags set the first five; the rest
// are the benchmark's fixed settings, which the self-tests shrink.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	workdir  string
	// minJobs keeps the loop going past seconds until that many jobs have
	// been timed, so that the p90 has at least 10 samples beyond it.
	minJobs int
	// A run sets up setupReps times before its job loop and more between
	// jobs, spread over the loop, until the set-ups have taken setupTime;
	// setup_s is their median.
	setupReps int
	setupTime time.Duration
}

// maxLoop bounds a run's job loop so that a run ends within its time limit
// even when jobs are slower than the workload was sized for.
const maxLoop = 110 * time.Second

func main() {
	o := options{minJobs: 100, setupReps: 5, setupTime: time.Second}
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long the job loop runs")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the generated input and the trace")
	flag.Parse()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, not %d", o.trace)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, not %v", o.seconds)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "input-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := w.makeInput(dir, o.seed)
	if err != nil {
		return nil, err
	}
	shape, err := json.Marshal(in.shape)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(shape))

	s := &session{w: &w, in: in, layer: map[string][]float64{}, setupTarget: o.setupTime}
	if o.trace == 1 {
		s.tr = newTracer()
	}
	defer func() {
		if s.r != nil {
			s.r.close()
		}
	}()
	resident, err := s.setUp(o.setupReps)
	if err != nil {
		return nil, err
	}

	seconds := time.Duration(o.seconds * float64(time.Second))
	samples, err := s.loop(2, seconds, o.minJobs, maxLoop)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no job succeeded (%d attempted)", s.attempted)
	}

	res := &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed}
	var defs []metricDef
	var values map[string]float64
	if o.trace == 0 {
		defs = endToEndMetrics
		values = endToEnd(samples, s.setupTimes, resident, in.shape.Edges)
	} else {
		defs = perLayerMetrics
		if values, err = perLayer(s, samples); err != nil {
			return nil, err
		}
		path := filepath.Join(o.workdir, "trace-"+w.name+".json")
		if err := s.tr.write(path, in.shape); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "trace written to", path)
	}
	if res.Metrics, err = fill(defs, values); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d set-ups, %d jobs attempted, %d failed, %d timed\n%s",
		w.name, o.seed, len(s.setupTimes), s.attempted, s.failed, len(samples), summary(defs, res.Metrics))
	return res, nil
}

// endToEnd computes the untraced run's metrics. The p90 rests on the
// len(samples)/10 slowest jobs, at least 10 when the run holds 100 jobs.
func endToEnd(samples []sample, setupTimes, resident []float64, edges int64) map[string]float64 {
	var times, allocs []float64
	for _, smp := range samples {
		times = append(times, smp.ms)
		allocs = append(allocs, float64(smp.allocB)/1e6)
	}
	p50 := median(times)
	return map[string]float64{
		"setup_s":          median(setupTimes),
		"job_ms_p50":       p50,
		"job_ms_p90":       quantile(times, 0.9),
		"medges_per_s":     float64(edges) / (p50 * 1e3),
		"alloc_mb_per_job": median(allocs),
		"resident_mb":      median(resident),
	}
}

// perLayer computes the traced run's metrics: medians over the traced
// jobs of each job's per-layer sample, set-up layer medians, the Go
// runtime's GC counts over the untraced jobs, the Galois baseline, and the
// tracing overhead (traced over untraced job p50, minus 1).
func perLayer(s *session, samples []sample) (map[string]float64, error) {
	layer := s.layer
	if err := s.probe(3); err != nil {
		return nil, err
	}
	for i := 0; i < 5; i++ {
		start := time.Now()
		galoisJob(s.w, s.r.g)
		layer["baselines.galois_ms"] = append(layer["baselines.galois_ms"], ms(time.Since(start)))
	}

	values := map[string]float64{}
	for _, d := range perLayerMetrics {
		values[d.name] = 0
	}
	traced := map[string][]float64{}
	var plain, cycles, pauses []float64
	for _, smp := range samples {
		if smp.layer == nil {
			plain = append(plain, smp.ms)
			cycles = append(cycles, float64(smp.gcCycles))
			pauses = append(pauses, float64(smp.gcPauseNs)/1e6)
			continue
		}
		for k, v := range smp.layer {
			traced[k] = append(traced[k], v)
		}
	}
	if len(plain) == 0 || len(traced["job.ms"]) == 0 {
		return nil, fmt.Errorf("traced run needs traced and untraced jobs (%d timed)", len(samples))
	}
	for k, vs := range traced {
		values[k] = median(vs)
	}
	for k, vs := range layer {
		values[k] = median(vs)
	}
	values["gc.cycles_per_job"] = mean(cycles)
	values["gc.pause_ms_per_job"] = mean(pauses)
	values["trace.overhead_frac"] = values["job.ms"]/median(plain) - 1
	return values, nil
}
