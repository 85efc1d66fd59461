package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"kimbap/internal/comm"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
)

// small returns w on an input small enough for a unit test.
func small(w workload) workload {
	switch {
	case w.text:
		w.generate = func(seed int64) *graph.Graph { return gen.RMAT(7, 8, false, seed) }
	case w.algos[0] == algoCCSV && w.hosts > 1:
		w.generate = func(seed int64) *graph.Graph { return gen.RMAT(9, 8, true, seed) }
	default:
		w.generate = func(seed int64) *graph.Graph { return gen.Grid(8, 8, true, seed) }
	}
	return w
}

// newSession generates w's input and sets it up once.
func newSession(t *testing.T, w workload, traced bool) *session {
	t.Helper()
	in, err := w.makeInput(t.TempDir(), 7)
	if err != nil {
		t.Fatal(err)
	}
	s := &session{w: &w, in: in, layer: map[string][]float64{}}
	if traced {
		s.tr = newTracer()
	}
	if _, err := s.setUp(1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.r.close() })
	return s
}

// TestWrongOutputCounted corrupts one output of one job per workload and
// checks that exactly that job is counted as failed.
func TestWrongOutputCounted(t *testing.T) {
	corruptions := map[string]func(g *graph.Graph, o *outputs){
		algoCCSV: func(_ *graph.Graph, o *outputs) { o.labels[algoCCSV][5]++ },
		algoMSF:  func(_ *graph.Graph, o *outputs) { o.msf.TotalWeight++ },
		// Moving the highest-degree node into a community of its own
		// changes the modularity.
		algoLouvain: func(g *graph.Graph, o *outputs) {
			hub := 0
			for n := range g.NumNodes() {
				if g.Degree(graph.NodeID(n)) > g.Degree(graph.NodeID(hub)) {
					hub = n
				}
			}
			o.cd.Assignment[hub] = graph.NodeID(g.NumNodes())
		},
	}
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			s := newSession(t, w, false)
			flip := corruptions[w.algos[0]]
			s.corrupt = func(job int, o *outputs) {
				if job == 3 {
					flip(s.r.g, o)
				}
			}
			if _, err := s.loop(0, 0, 6, time.Minute); err != nil {
				t.Fatal(err)
			}
			if s.failed != 1 || s.attempted < 6 {
				t.Fatalf("%d of %d jobs failed, want exactly 1", s.failed, s.attempted)
			}
		})
	}
}

// panicEndpoint fails every send, as a host crashing mid-round would.
type panicEndpoint struct{ comm.Endpoint }

func (panicEndpoint) Send(int, comm.Tag, []byte) { panic("injected send failure") }

// stuckEndpoint never delivers, as a peer that died without closing would.
type stuckEndpoint struct{ comm.Endpoint }

func (stuckEndpoint) Recv(int, comm.Tag) []byte { select {} }

// TestFailedJobsCounted checks that a job that panics, and a job that
// hangs past its deadline, count as failed without stopping the run, and
// that after each the run goes on with a fresh instance whose jobs pass.
func TestFailedJobsCounted(t *testing.T) {
	w, err := findWorkload("rmat-tcp")
	if err != nil {
		t.Fatal(err)
	}
	w = small(w)
	w.tcp = false
	w.deadline = 500 * time.Millisecond

	s := newSession(t, w, false)
	for _, h := range s.r.c.Hosts() {
		h.EP = panicEndpoint{h.EP}
	}
	samples, err := s.loop(0, 0, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != 1 || len(samples) != 1 {
		t.Fatalf("%d jobs failed and %d succeeded; want the panicking job failed and the next one timed", s.failed, len(samples))
	}
	hosts := s.r.c.Hosts()
	hosts[1].EP = stuckEndpoint{hosts[1].EP}
	if samples, err = s.loop(0, 0, 3, time.Minute); err != nil {
		t.Fatal(err)
	}
	if s.failed != 2 || len(samples) != 3 {
		t.Fatalf("%d jobs failed and %d succeeded; want the hung job failed too and 3 more timed", s.failed, len(samples))
	}
}

// TestMISCheck checks that the MIS check rejects a set that is not
// independent.
func TestMISCheck(t *testing.T) {
	w := small(workloads[0])
	s := newSession(t, w, false)
	if _, err := s.one(0, jobPlain); err != nil {
		t.Fatal(err)
	}
	mis := s.r.out.mis
	i := slices.Index(mis, false)
	mis[i] = true
	if err := verify(s.w, s.r.g, &s.in.ref, s.r.out); err == nil {
		t.Fatal("MIS with two adjacent members passed the check")
	}
}

// TestLouvainQualityCheck checks that a Louvain answer whose modularity is
// consistent with its assignment but far below the reference is rejected.
func TestLouvainQualityCheck(t *testing.T) {
	w, err := findWorkload("rmat-louvain")
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, small(w), false)
	if _, err := s.one(0, jobPlain); err != nil {
		t.Fatal(err)
	}
	o := s.r.out
	for i := range o.cd.Assignment {
		o.cd.Assignment[i] = graph.NodeID(i)
	}
	o.cd.Modularity = graph.Modularity(s.r.g, o.cd.Assignment)
	if err := verify(s.w, s.r.g, &s.in.ref, o); err == nil {
		t.Fatal("all-singleton communities passed the check")
	}
}

// TestEndpointWrapperTransparent runs the rmat-tcp job on 2 hosts, over
// the local and the TCP transport, with and without the timing endpoints,
// and checks that outputs and per-tag comm counts are identical.
func TestEndpointWrapperTransparent(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		w, err := findWorkload("rmat-tcp")
		if err != nil {
			t.Fatal(err)
		}
		w = small(w)
		w.tcp = tcp
		s := newSession(t, w, true)
		c := s.r.c
		_, buffered := c.Hosts()[0].EP.(comm.BufferedSender)
		if _, ok := s.wrapped[0].(comm.BufferedSender); ok != buffered {
			t.Fatalf("tcp=%v: wrapper is a BufferedSender: %v, transport: %v", tcp, ok, buffered)
		}
		type run struct {
			labels []graph.NodeID
			msf    float64
			bytes  []int64
			msgs   []int64
		}
		var runs []run
		for job, kind := range []jobKind{jobPlain, jobTraced, jobPlain, jobTraced} {
			m0, b0 := c.CommStatsByTag()
			if _, err := s.one(job, kind); err != nil {
				t.Fatalf("tcp=%v job %d: %v", tcp, job, err)
			}
			m1, b1 := c.CommStatsByTag()
			for i := range m1 {
				m1[i] -= m0[i]
				b1[i] -= b0[i]
			}
			runs = append(runs, run{slices.Clone(s.r.out.labels[algoCCSV]), s.r.out.msf.TotalWeight, b1, m1})
		}
		for i, r := range runs[1:] {
			if !slices.Equal(r.labels, runs[0].labels) || r.msf != runs[0].msf ||
				!slices.Equal(r.bytes, runs[0].bytes) || !slices.Equal(r.msgs, runs[0].msgs) {
				t.Fatalf("tcp=%v: job %d differs from job 0: bytes %v vs %v, msgs %v vs %v",
					tcp, i+1, r.bytes, runs[0].bytes, r.msgs, runs[0].msgs)
			}
		}
		if s.tr.commSpans == 0 {
			t.Fatalf("tcp=%v: traced jobs recorded no Send/Recv spans", tcp)
		}
	}
}

// TestMetricsDeclared runs every workload in both modes on small inputs
// and checks that the emitted metric names are well formed and are
// exactly those BENCHMARK.json declares for the mode, and that every
// end-to-end value is positive.
func TestMetricsDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(defs []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	modes := []map[string]string{declared(spec.EndToEnd), declared(spec.PerLayer)}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

	saved := workloads
	defer func() { workloads = saved }()
	workloads = nil
	for _, w := range saved {
		workloads = append(workloads, small(w))
	}
	for _, sw := range spec.Workloads {
		if _, err := findWorkload(sw.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
		for trace, want := range modes {
			res, err := run(options{workload: sw.Name, seed: 3, seconds: 0.05, trace: trace,
				workdir: t.TempDir(), minJobs: 6, setupReps: 2, setupTime: 20 * time.Millisecond})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", sw.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%d: %d of %d jobs failed", sw.Name, trace, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%d: %d metrics, BENCHMARK.json declares %d", sw.Name, trace, len(res.Metrics), len(want))
			}
			for n, v := range res.Metrics {
				if !name.MatchString(n) || want[n] != v.Unit {
					t.Fatalf("%s trace=%d: metric %q unit %q not declared", sw.Name, trace, n, v.Unit)
				}
				if trace == 0 && v.Value <= 0 {
					t.Fatalf("%s: end-to-end metric %s = %v", sw.Name, n, v.Value)
				}
			}
		}
	}
}

// TestSelfTimes checks self time against hand-computed overlaps.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 40, parent: 0},
		{start: 30, end: 60, parent: 0}, // overlaps its sibling by 10
		{start: 35, end: 45, parent: 2},
	}
	got := selfTimes(spans)
	want := []int64{50, 30, 20, 10}
	if !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}
