package main

import (
	"errors"
	"fmt"
	"time"

	"kimbap/internal/algorithms"
	"kimbap/internal/graph"
	"kimbap/internal/runtime"
)

// runner executes a workload's job on one set-up instance: the ingested
// graph and, unless the workload is ingest-only, its cluster.
type runner struct {
	w    *workload
	g    *graph.Graph
	c    *runtime.Cluster
	acfg algorithms.Config
	out  *outputs

	// tj is the job's tracing state, nil for an untraced job.
	tj *tracedJob
}

func newRunner(w *workload, g *graph.Graph, c *runtime.Cluster) *runner {
	return &runner{w: w, g: g, c: c, acfg: w.algoConfig(), out: newOutputs(w, g.NumNodes())}
}

func (r *runner) close() {
	if r.c != nil {
		r.c.Close()
	}
}

// job runs the workload's algorithm calls in order.
func (r *runner) job() {
	if r.tj != nil {
		r.tj.beginJob()
		defer r.tj.endJob()
	}
	for _, a := range r.w.algos {
		r.algo(a)
	}
}

func (r *runner) algo(name string) {
	if r.tj != nil {
		r.tj.beginAlgo(name)
		defer r.tj.endAlgo()
	}
	o := r.out
	switch name {
	case algoCCSV, algoCCLP:
		run := algorithms.CCSV
		if name == algoCCLP {
			run = algorithms.CCLP
		}
		labels, st := o.labels[name], o.ccStats[name]
		r.run(func(h *runtime.Host) { st[h.Rank] = run(h, r.acfg, labels) })
		o.rounds[name] = st[0].HookRounds + st[0].ShortcutRounds
	case algoMIS:
		r.run(func(h *runtime.Host) {
			st := algorithms.MIS(h, r.acfg, o.mis)
			if h.Rank == 0 {
				o.rounds[name] = st.Rounds
			}
		})
	case algoMSF:
		comp := o.labels[name]
		r.run(func(h *runtime.Host) {
			st := algorithms.MSF(h, r.acfg, comp)
			if h.Rank == 0 {
				o.msf = st
			}
		})
		o.rounds[name] = o.msf.Rounds
	case algoLouvain:
		res, err := algorithms.Louvain(r.g, r.w.clusterConfig(), r.acfg, algorithms.CDOptions{})
		if err != nil {
			panic(err)
		}
		o.cd = res
		o.rounds[name] = res.Rounds
	}
}

// run is cluster.Run with the traced job's host-program spans around prog.
func (r *runner) run(prog func(h *runtime.Host)) {
	if r.tj == nil {
		r.c.Run(prog)
		return
	}
	r.c.Run(func(h *runtime.Host) {
		end := r.tj.beginHost(h.Rank)
		defer end()
		prog(h)
	})
}

var (
	errDeadline    = errors.New("job missed its deadline")
	errWrongOutput = errors.New("wrong output")
)

// attempt runs one job under the workload's deadline and returns its wall
// time. A panic or a missed deadline comes back as an error, after which
// the caller must replace the runner: a missed deadline may leave the
// job's hosts blocked, and a panic may leave frames queued between them.
func (r *runner) attempt() (time.Duration, error) {
	type result struct {
		d   time.Duration
		err error
	}
	done := make(chan result, 1)
	go func() {
		var res result
		defer func() {
			if p := recover(); p != nil {
				res.err = fmt.Errorf("job panicked: %v", p)
			}
			done <- res
		}()
		start := time.Now()
		r.job()
		res.d = time.Since(start)
	}()
	timer := time.NewTimer(r.w.deadline)
	defer timer.Stop()
	select {
	case res := <-done:
		return res.d, res.err
	case <-timer.C:
		return 0, errDeadline
	}
}
