package main

import (
	"errors"
	"fmt"
	"os"
	goruntime "runtime"
	"slices"
	"time"

	"kimbap/internal/baselines/galois"
	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// session is one benchmark run of one workload on one generated input.
type session struct {
	w  *workload
	in *input
	r  *runner
	// tr is the traced run's span recorder, nil in the untraced run.
	tr *tracer

	// Traced runs only: the hosts' own endpoints, the same wrapped for
	// timing, and the comm counters read when the current job started.
	raw, wrapped  []comm.Endpoint
	eps           []*timedEndpoint
	msgs0, bytes0 []int64

	// layer collects the traced run's per-layer samples taken outside
	// jobs: set-ups, probes and baselines.
	layer map[string][]float64
	// setupTimes holds the wall time of every set-up so far. A run spreads
	// set-ups over its job loop until they add up to setupTarget.
	setupTimes              []float64
	setupTotal, setupTarget time.Duration

	attempted, failed int
	// corrupt, when set, may alter a job's outputs before they are checked;
	// the self-tests use it to prove that a wrong answer is counted.
	corrupt func(job int, o *outputs)
}

// sample is what one successful job measured. layer is set for traced
// jobs only.
type sample struct {
	ms        float64
	allocB    uint64
	gcCycles  uint32
	gcPauseNs uint64
	layer     map[string]float64
}

// use makes r the session's runner, closing the previous one, and in a
// traced run wraps the new cluster's endpoints for timing.
func (s *session) use(r *runner) {
	if s.r != nil {
		s.r.close()
	}
	s.r = r
	if s.tr == nil || r.c == nil {
		return
	}
	s.raw, s.wrapped, s.eps = nil, nil, nil
	for _, h := range r.c.Hosts() {
		w, te := wrapEndpoint(h.EP, s.tr, h.Rank)
		s.raw = append(s.raw, h.EP)
		s.wrapped = append(s.wrapped, w)
		s.eps = append(s.eps, te)
	}
}

// setUp sets up reps instances one after another, each replacing the one
// before, and returns the live heap with each new instance loaded and the
// one before it closed. It reads the heap after two GCs, the second
// freeing what the first only moved to sync.Pool's victim cache.
func (s *session) setUp(reps int) (residentMB []float64, err error) {
	for range reps {
		r, err := s.setUpOnce()
		if err != nil {
			return nil, err
		}
		s.use(r)
		goruntime.GC()
		goruntime.GC()
		var mem goruntime.MemStats
		goruntime.ReadMemStats(&mem)
		residentMB = append(residentMB, float64(mem.HeapAlloc)/1e6)
	}
	return residentMB, nil
}

// spareSetUps sets up and closes spare instances, the jobs going on with
// the current one, until the run's set-ups add up to the share of
// setupTarget that el is of seconds. Spread over the job loop, set-up time
// is sampled under the same drift in machine speed as the jobs, not in
// one burst.
func (s *session) spareSetUps(el, seconds time.Duration) error {
	due := s.setupTarget
	if el < seconds {
		due = time.Duration(float64(due) * float64(el) / float64(seconds))
	}
	for s.setupTotal < due {
		r, err := s.setUpOnce()
		if err != nil {
			return err
		}
		r.close()
	}
	return nil
}

// setUpOnce ingests the input file and, unless the workload is
// ingest-only, builds its cluster, after a GC. It records the set-up's
// wall time; a traced run also times the ingest and NewCluster calls
// inside it and the ingest's allocation.
func (s *session) setUpOnce() (*runner, error) {
	goruntime.GC()
	tr, layer := s.tr, s.layer
	var root, sp int32
	var m0, m1 goruntime.MemStats
	start := time.Now()
	if tr != nil {
		root = tr.begin(spanSetup, -1, -1, -1)
		goruntime.ReadMemStats(&m0)
		sp = tr.begin(spanIngest, root, -1, -1)
	}
	g, err := s.w.ingest(s.in.path)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		layer["graph.ingest_ms"] = append(layer["graph.ingest_ms"], ms(tr.end(sp)))
		goruntime.ReadMemStats(&m1)
		layer["graph.ingest_alloc_ratio"] = append(layer["graph.ingest_alloc_ratio"],
			float64(m1.TotalAlloc-m0.TotalAlloc)/float64(csrBytes(g)))
	}
	var c *runtime.Cluster
	if !s.w.ingestOnly {
		if tr != nil {
			sp = tr.begin(spanNewCluster, root, -1, -1)
		}
		if c, err = runtime.NewCluster(g, s.w.clusterConfig()); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		if tr != nil {
			layer["runtime.new_cluster_ms"] = append(layer["runtime.new_cluster_ms"], ms(tr.end(sp)))
		}
	}
	d := time.Since(start)
	if tr != nil {
		tr.end(root)
	}
	s.setupTimes = append(s.setupTimes, d.Seconds())
	s.setupTotal += d
	return newRunner(s.w, g, c), nil
}

// probe times the set-up layers a traced run cannot see inside set-up: a
// separate partition.Partition call, and for ingest-only workloads a
// NewCluster call with the cluster configuration of the job's first level.
func (s *session) probe(reps int) error {
	g, cfg, layer := s.r.g, s.w.clusterConfig(), s.layer
	for i := 0; i < reps; i++ {
		goruntime.GC()
		sp := s.tr.begin(spanPartition, -1, -1, -1)
		p := partition.Partition(g, cfg.NumHosts, cfg.Policy)
		layer["partition.ms"] = append(layer["partition.ms"], ms(s.tr.end(sp)))
		layer["partition.replication_factor"] = append(layer["partition.replication_factor"], p.ReplicationFactor())
		if s.w.ingestOnly {
			sp := s.tr.begin(spanNewCluster, -1, -1, -1)
			c, err := runtime.NewCluster(g, cfg)
			if err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			layer["runtime.new_cluster_ms"] = append(layer["runtime.new_cluster_ms"], ms(s.tr.end(sp)))
			c.Close()
		}
	}
	return nil
}

// jobKind says how a job is instrumented. A traced run rotates through
// all three, so each kind sees the same drift in machine load.
type jobKind int

const (
	jobPlain jobKind = iota
	// jobTraced records spans, swaps in the timing endpoints and logs
	// rounds; trace.overhead_frac compares it with jobPlain.
	jobTraced
	// jobReads sets algorithms.Config.StatsSink, whose per-read counters
	// cost the program far more than the spans do, so it gets jobs of its
	// own and its times are not used.
	jobReads
)

// loop runs jobs back to back, one in flight at a time, for at least
// seconds and at least minJobs successful jobs (but never past maxLoop),
// after warmup jobs whose times are dropped, with spare set-ups between
// the timed jobs. A traced run rotates the job kinds. Every job's outputs
// are checked after its timed window; a wrong output, a panic or a missed
// deadline counts as a failed job.
func (s *session) loop(warmup int, seconds time.Duration, minJobs int, maxLoop time.Duration) ([]sample, error) {
	var samples []sample
	var start time.Time
	for job := 0; ; job++ {
		if job == warmup {
			start = time.Now()
		}
		if job >= warmup {
			if err := s.spareSetUps(time.Since(start), seconds); err != nil {
				return nil, err
			}
			el := time.Since(start)
			if el >= maxLoop || (el >= seconds && len(samples) >= minJobs) {
				break
			}
		}
		kind := jobPlain
		if s.tr != nil {
			kind = jobKind(job % 3)
		}
		smp, err := s.one(job, kind)
		s.attempted++
		if err != nil {
			s.failed++
			fmt.Fprintf(os.Stderr, "job %d failed: %v\n", job, err)
			if !errors.Is(err, errWrongOutput) {
				// A panic can leave frames queued between the hosts, and a
				// timed-out job may still hold the cluster: replace it. The
				// timed-out one is not closed under its running hosts.
				if errors.Is(err, errDeadline) {
					s.r = nil
				}
				r, err := s.setUpOnce()
				if err != nil {
					return nil, err
				}
				s.use(r)
			}
			continue
		}
		if job >= warmup {
			samples = append(samples, smp)
		}
	}
	return samples, nil
}

func (s *session) one(job int, kind jobKind) (sample, error) {
	r := s.r
	r.out.reset()
	var reads *readStats
	switch kind {
	case jobTraced:
		s.startTracedJob(job)
	case jobReads:
		reads = &readStats{}
		r.acfg.StatsSink = reads
	}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	d, err := r.attempt()
	goruntime.ReadMemStats(&m1)
	smp := sample{
		ms:        ms(d),
		allocB:    m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:  m1.NumGC - m0.NumGC,
		gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
	switch {
	case errors.Is(err, errDeadline):
		// The timed-out job's hosts may still be running; its runner is
		// replaced, not restored.
	case kind == jobTraced:
		if layer := s.finishTracedJob(); err == nil {
			smp.layer = layer
		}
	case kind == jobReads:
		r.acfg = r.w.algoConfig()
		master, remote := reads.master.Load(), reads.remote.Load()
		smp.layer = map[string]float64{"npm.remote_read_frac": float64(remote) / float64(max(1, master+remote))}
	}
	if err != nil {
		return smp, err
	}
	if s.corrupt != nil {
		s.corrupt(job, r.out)
	}
	if err := verify(s.w, r.g, &s.in.ref, r.out); err != nil {
		return smp, fmt.Errorf("%w: %w", errWrongOutput, err)
	}
	return smp, nil
}

// startTracedJob installs the timing endpoints and round logging and
// zeroes the counters the job's sample is taken from.
func (s *session) startTracedJob(job int) {
	r := s.r
	tj := &tracedJob{tr: s.tr, job: int32(job), eps: s.eps}
	if r.c != nil {
		for i, h := range r.c.Hosts() {
			e := s.eps[i]
			e.job.Store(int32(job))
			e.parent.Store(-1)
			e.recvNs.Store(0)
			e.sendNs.Store(0)
			h.EP = s.wrapped[i]
			h.ResetTimers()
		}
		s.msgs0, s.bytes0 = r.c.CommStatsByTag()
	}
	r.acfg.LogRounds = true
	r.tj = tj
}

// finishTracedJob restores the untraced configuration and returns the
// job's per-layer sample.
func (s *session) finishTracedJob() map[string]float64 {
	r, tj := s.r, s.r.tj
	r.tj = nil
	r.acfg = r.w.algoConfig()
	m := map[string]float64{}
	job := tj.tr.get(tj.jobSpan)
	jobNs := float64(job.end - job.start)
	m["job.ms"] = jobNs / 1e6
	var algoNs, skewNs float64
	for _, a := range tj.algos {
		sp := tj.tr.get(a.span)
		d := float64(sp.end - sp.start)
		algoNs += d
		m["algorithms."+a.name+".ms"] += d / 1e6
		if len(a.hosts) > 0 {
			var ends []int64
			for _, id := range a.hosts {
				ends = append(ends, tj.tr.get(id).end)
			}
			skewNs += float64(slices.Max(ends) - slices.Min(ends))
		}
	}
	m["trace.algo_cover_frac"] = algoNs / jobNs
	m["runtime.host_skew_ms"] = skewNs / 1e6

	o := r.out
	for _, a := range r.w.algos {
		m["algorithms."+a+".rounds"] = float64(o.rounds[a])
		st := o.ccStats[a]
		if st == nil {
			continue
		}
		var active, async, pull float64
		for _, hs := range st {
			for _, n := range hs.PerRound.Active {
				active += float64(n)
			}
		}
		for i := range st[0].PerRound.Mode {
			if st[0].PerRound.Mode[i] == runtime.ModeAsync.String() {
				async++
			}
			if st[0].PerRound.Dir[i] == runtime.DirPull.String() {
				pull++
			}
		}
		m["algorithms."+a+".active_vertices"] = active
		m["algorithms."+a+".async_rounds"] = async
		m["algorithms."+a+".pull_rounds"] = pull
	}
	if o.cd.Assignment != nil {
		m["algorithms.louvain.modularity"] = o.cd.Modularity
	}

	timers := runtime.Timers{Compute: o.cd.Compute, Request: o.cd.Request,
		Reduce: o.cd.Reduce, Broadcast: o.cd.Broadcast}
	if r.c != nil {
		for i, h := range r.c.Hosts() {
			h.EP = s.raw[i]
			timers.Compute += h.Timers.Compute
			timers.Request += h.Timers.Request
			timers.Reduce += h.Timers.Reduce
			timers.Broadcast += h.Timers.Broadcast
		}
		msgs1, bytes1 := r.c.CommStatsByTag()
		var msgs, bytes int64
		for t := range msgs1 {
			msgs += msgs1[t] - s.msgs0[t]
			b := bytes1[t] - s.bytes0[t]
			bytes += b
			m["comm.bytes."+comm.Tag(t).String()] = float64(b)
		}
		m["comm.msgs_per_job"] = float64(msgs)
		m["comm.mb_per_job"] = float64(bytes) / 1e6
		var recv, send int64
		for _, e := range tj.eps {
			recv += e.recvNs.Load()
			send += e.sendNs.Load()
		}
		m["comm.recv_wait_ms"] = float64(recv) / 1e6
		m["comm.send_ms"] = float64(send) / 1e6
	}
	m["runtime.compute_ms"] = ms(timers.Compute)
	m["runtime.request_ms"] = ms(timers.Request)
	m["runtime.reduce_ms"] = ms(timers.Reduce)
	m["runtime.broadcast_ms"] = ms(timers.Broadcast)
	return m
}

// galoisJob runs the shared-memory Galois baseline of each of the job's
// algorithms at one thread.
func galoisJob(w *workload, g *graph.Graph) {
	for _, a := range w.algos {
		switch a {
		case algoCCSV:
			galois.CCSV(g, 1)
		case algoCCLP:
			galois.CCLP(g, 1)
		case algoMIS:
			galois.MIS(g, 1)
		case algoMSF:
			galois.MSF(g, 1)
		case algoLouvain:
			galois.Louvain(g, 1)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
