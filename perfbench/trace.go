package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kimbap/internal/comm"
)

// Span names. Every span is recorded by the benchmark around a call into
// one of the program's public functions; nothing is traced inside it.
const (
	spanSetup      = "setup"
	spanIngest     = "graph.ingest"
	spanPartition  = "partition.Partition"
	spanNewCluster = "runtime.NewCluster"
	spanJob        = "job"
	spanHost       = "runtime.host_program"
	spanRecv       = "comm.Recv"
	spanSend       = "comm.Send"
	spanFlush      = "comm.FlushSends"
)

// span is one timed interval. IDs are indexes into tracer.spans; parent is
// -1 for a root, job is -1 outside jobs and host is -1 where no single host
// ran the span.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	job        int32
	host       int16
}

// maxCommSpans caps the Recv/Send spans kept for export. The per-job
// Recv/Send totals come from the endpoints' own counters, so a run that
// hits the cap loses only export detail.
const maxCommSpans = 1 << 17

// tracer keeps a run's spans in memory until write exports them.
type tracer struct {
	epoch time.Time

	mu          sync.Mutex
	spans       []span
	commSpans   int
	commDropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, job int32, host int) int32 {
	s := span{name: name, start: t.now(), end: -1, parent: parent, job: job, host: int16(host)}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return time.Duration(now - t.spans[id].start)
}

// addComm records a finished Recv/Send span, up to maxCommSpans.
func (t *tracer) addComm(name string, start, end int64, parent, job int32, host int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.commSpans >= maxCommSpans {
		t.commDropped++
		return
	}
	t.commSpans++
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, job: job, host: int16(host)})
}

func (t *tracer) get(id int32) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int32) int { return int(spans[a].start - spans[b].start) })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// write exports every span as JSON with its self time.
func (t *tracer) write(path string, shape inputShape) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	head, err := json.Marshal(shape)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(bw, "{\"input\":%s,\"comm_spans_dropped\":%d,\"spans\":[", head, t.commDropped)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n{\"id\":%d,\"name\":%q,\"parent\":%d,\"job\":%d,\"host\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}",
			i, s.name, s.parent, s.job, s.host, s.start, s.end, self[i])
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// timedEndpoint wraps a host's comm.Endpoint: every Send and Recv becomes a
// span under the host-program span current at the call, and its time adds
// to the endpoint's per-job totals. Stats and Close pass through, so
// Cluster.CommStats reads the same counters as without the wrapper.
//
// The transports' collectives reuse scratch buffers through an unexported
// interface the wrapper cannot forward, so under tracing every collective
// allocates its buffers per call. That is one reason trace.overhead_frac is
// measured rather than assumed zero.
type timedEndpoint struct {
	comm.Endpoint
	tr     *tracer
	host   int
	parent atomic.Int32 // current host-program span
	job    atomic.Int32
	recvNs atomic.Int64
	sendNs atomic.Int64
}

func (e *timedEndpoint) record(name string, start int64, ns *atomic.Int64) {
	end := e.tr.now()
	ns.Add(end - start)
	e.tr.addComm(name, start, end, e.parent.Load(), e.job.Load(), e.host)
}

func (e *timedEndpoint) Send(to int, tag comm.Tag, payload []byte) {
	start := e.tr.now()
	e.Endpoint.Send(to, tag, payload)
	e.record(spanSend, start, &e.sendNs)
}

func (e *timedEndpoint) Recv(from int, tag comm.Tag) []byte {
	start := e.tr.now()
	p := e.Endpoint.Recv(from, tag)
	e.record(spanRecv, start, &e.recvNs)
	return p
}

// timedBufferedEndpoint is a timedEndpoint over a transport that stages
// sends (comm.BufferedSender), forwarding the staging so TCP still batches
// a round's frames into one write per peer.
type timedBufferedEndpoint struct {
	*timedEndpoint
	bs comm.BufferedSender
}

func (e *timedBufferedEndpoint) SendBuffered(to int, tag comm.Tag, payload []byte) {
	start := e.tr.now()
	e.bs.SendBuffered(to, tag, payload)
	e.record(spanSend, start, &e.sendNs)
}

func (e *timedBufferedEndpoint) FlushSends() {
	start := e.tr.now()
	e.bs.FlushSends()
	e.record(spanFlush, start, &e.sendNs)
}

// wrapEndpoint returns ep wrapped for timing, as a comm.BufferedSender too
// when ep is one.
func wrapEndpoint(ep comm.Endpoint, tr *tracer, host int) (comm.Endpoint, *timedEndpoint) {
	te := &timedEndpoint{Endpoint: ep, tr: tr, host: host}
	te.parent.Store(-1)
	te.job.Store(-1)
	if bs, ok := ep.(comm.BufferedSender); ok {
		return &timedBufferedEndpoint{timedEndpoint: te, bs: bs}, te
	}
	return te, te
}

// readStats is the algorithms.ReadStatsSink of read-tracking jobs; hosts
// record concurrently.
type readStats struct{ master, remote atomic.Int64 }

func (s *readStats) Record(master, remote int64) {
	s.master.Add(master)
	s.remote.Add(remote)
}

// tracedJob is the tracing state of one traced job: the open job and
// algorithm spans, the host-program spans of each algorithm call, and the
// counters read before the job starts.
type tracedJob struct {
	tr  *tracer
	job int32
	eps []*timedEndpoint // per host; nil for ingest-only workloads

	jobSpan  int32
	algoSpan int32
	algos    []algoCall
}

type algoCall struct {
	name  string
	span  int32
	hosts []int32
}

func (tj *tracedJob) beginJob() { tj.jobSpan = tj.tr.begin(spanJob, -1, tj.job, -1) }

func (tj *tracedJob) endJob() { tj.tr.end(tj.jobSpan) }

func (tj *tracedJob) beginAlgo(name string) {
	tj.algoSpan = tj.tr.begin("algorithms."+name, tj.jobSpan, tj.job, -1)
	tj.algos = append(tj.algos, algoCall{name: name, span: tj.algoSpan, hosts: make([]int32, len(tj.eps))})
}

func (tj *tracedJob) endAlgo() { tj.tr.end(tj.algoSpan) }

// beginHost opens host rank's program span for the current algorithm call
// and points the host's endpoint at it; the returned func closes it.
func (tj *tracedJob) beginHost(rank int) func() {
	id := tj.tr.begin(spanHost, tj.algoSpan, tj.job, rank)
	tj.algos[len(tj.algos)-1].hosts[rank] = id
	tj.eps[rank].parent.Store(id)
	return func() { tj.tr.end(id) }
}
