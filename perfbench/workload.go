package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"kimbap/internal/algorithms"
	"kimbap/internal/baselines/galois"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Algorithm names, as they appear in metric names (algorithms.<name>.ms).
const (
	algoCCSV    = "cc_sv"
	algoCCLP    = "cc_lp"
	algoMIS     = "mis"
	algoMSF     = "msf"
	algoLouvain = "louvain"
)

// allAlgos lists every algorithm any workload runs, in metric order.
var allAlgos = []string{algoCCSV, algoCCLP, algoMIS, algoMSF, algoLouvain}

// workload is one benchmark configuration: a seeded input generator, the
// file format the program ingests, the cluster the job runs on, and the
// job itself, a fixed list of algorithm calls.
type workload struct {
	name    string
	hosts   int
	threads int
	tcp     bool
	policy  partition.Policy
	dir     algorithms.Direction
	// text selects a text edge list as the input file instead of KMB2.
	text bool
	// ingestOnly ends set-up after ingest: the job builds its own clusters
	// (Louvain partitions per level inside algorithms.Louvain).
	ingestOnly bool
	algos      []string
	// deadline is the longest one job may take before it counts as
	// failed; a host panic can leave Cluster.Run blocked forever.
	deadline time.Duration
	generate func(seed int64) *graph.Graph
}

// workloads are the benchmark's workloads; README.md says why each exists.
var workloads = []workload{
	{
		name: "road-bsp", hosts: 1, threads: 2, policy: partition.OEC,
		algos:    []string{algoCCSV, algoCCLP, algoMIS},
		deadline: 10 * time.Second,
		generate: func(seed int64) *graph.Graph { return gen.Grid(64, 64, true, seed) },
	},
	{
		name: "rmat-tcp", hosts: 2, threads: 1, tcp: true, policy: partition.IEC,
		dir:      algorithms.DirAdaptive,
		algos:    []string{algoCCSV, algoMSF},
		deadline: 20 * time.Second,
		generate: func(seed int64) *graph.Graph { return gen.RMAT(15, 16, true, seed) },
	},
	{
		name: "rmat-louvain", hosts: 2, threads: 1, policy: partition.OEC,
		text: true, ingestOnly: true,
		algos:    []string{algoLouvain},
		deadline: 20 * time.Second,
		generate: func(seed int64) *graph.Graph { return gen.RMAT(12, 16, false, seed) },
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) clusterConfig() runtime.Config {
	return runtime.Config{
		NumHosts: w.hosts, ThreadsPerHost: w.threads, Policy: w.policy, UseTCP: w.tcp,
	}
}

func (w *workload) algoConfig() algorithms.Config {
	return algorithms.Config{Direction: w.dir}
}

// input is a generated input file plus everything the benchmark derived
// from the generated graph before writing it: its shape and the reference
// outputs every job is checked against.
type input struct {
	path  string
	shape inputShape
	ref   reference
}

// l2Bytes is the per-core L2 size of the host the workload sizes were
// chosen on; the input shape reports the CSR footprint against it.
const l2Bytes = 4 << 20

type inputShape struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Format         string  `json:"format"`
	Nodes          int     `json:"nodes"`
	Edges          int64   `json:"edges"`
	MaxDegree      int     `json:"max_degree"`
	ApproxDiameter int     `json:"approx_diameter"`
	CSRBytes       int64   `json:"csr_bytes"`
	CSROverL2      float64 `json:"csr_over_l2"`
	Hosts          int     `json:"hosts"`
	Threads        int     `json:"threads"`
}

type reference struct {
	comp       []graph.NodeID // min-ID component labels
	msfWeight  float64
	forestSize int64 // nodes minus components
	// minModularity is the lowest Louvain modularity a job may report:
	// minModularityShare of the 1-thread Galois Louvain's on the input.
	minModularity float64
}

// minModularityShare is the share of the shared-memory Galois Louvain's
// modularity a distributed Louvain job must reach. The distributed answer
// reaches 0.61-0.75 of it on the rmat-louvain inputs of seeds 1-40, so this
// catches a collapse in quality, not a small drop; the traced run reports
// algorithms.louvain.modularity for those.
const minModularityShare = 0.5

func csrBytes(g *graph.Graph) int64 {
	b := int64(g.NumNodes()+1)*8 + g.NumEdges()*4
	if g.Weighted() {
		b += g.NumEdges() * 8
	}
	return b
}

// makeInput generates the workload's graph from seed, computes the
// references the job needs, and writes the graph into dir as the file the
// program ingests.
func (w *workload) makeInput(dir string, seed int64) (*input, error) {
	g := w.generate(seed)
	in := &input{shape: inputShape{
		Workload: w.name, Seed: seed, Format: "kmb2",
		Nodes: g.NumNodes(), Edges: g.NumEdges(), MaxDegree: g.MaxDegree(),
		ApproxDiameter: gen.ApproxDiameter(g), CSRBytes: csrBytes(g),
		Hosts: w.hosts, Threads: w.threads,
	}}
	in.shape.CSROverL2 = float64(in.shape.CSRBytes) / l2Bytes
	for _, a := range w.algos {
		switch a {
		case algoCCSV, algoCCLP, algoMSF:
			if in.ref.comp == nil {
				in.ref.comp = graph.ReferenceComponents(g)
			}
		}
		switch a {
		case algoMSF:
			in.ref.msfWeight = graph.ReferenceMSFWeight(g)
			in.ref.forestSize = int64(g.NumNodes() - graph.NumComponents(in.ref.comp))
		case algoLouvain:
			in.ref.minModularity = minModularityShare * galois.Louvain(g, 1).Modularity
		}
	}
	if w.text {
		in.shape.Format = "text"
		in.path = filepath.Join(dir, w.name+".el")
		if err := writeText(in.path, g); err != nil {
			return nil, err
		}
	} else {
		in.path = filepath.Join(dir, w.name+".kmb2")
		if err := graph.SaveKMB2(in.path, g, 0); err != nil {
			return nil, fmt.Errorf("write input: %w", err)
		}
	}
	return in, nil
}

func writeText(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write input: %w", err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return fmt.Errorf("write input: %w", err)
	}
	return f.Close()
}

// ingest opens the input file and builds the CSR through the streaming
// builder, the program's public ingest path.
func (w *workload) ingest(path string) (*graph.Graph, error) {
	var src interface {
		graph.BlockSource
		io.Closer
	}
	var err error
	if w.text {
		src, err = graph.OpenText(path)
	} else {
		src, err = graph.OpenKMB2(path)
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	defer src.Close()
	g, err := graph.NewStreamBuilder(src).Build()
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return g, nil
}

// outputs holds one job's results. The slices are allocated once per
// runner and cleared before every job, so an algorithm that skips a node
// leaves a sentinel the check catches instead of last job's answer.
type outputs struct {
	labels  map[string][]graph.NodeID // cc_sv, cc_lp, msf component labels
	mis     []bool
	msf     algorithms.MSFStats
	cd      algorithms.CDResult
	ccStats map[string][]algorithms.CCStats // per host
	rounds  map[string]int
}

func newOutputs(w *workload, n int) *outputs {
	o := &outputs{
		labels:  map[string][]graph.NodeID{},
		ccStats: map[string][]algorithms.CCStats{},
		rounds:  map[string]int{},
	}
	for _, a := range w.algos {
		switch a {
		case algoCCSV, algoCCLP:
			o.labels[a] = make([]graph.NodeID, n)
			o.ccStats[a] = make([]algorithms.CCStats, w.hosts)
		case algoMSF:
			o.labels[a] = make([]graph.NodeID, n)
		case algoMIS:
			o.mis = make([]bool, n)
		}
	}
	return o
}

func (o *outputs) reset() {
	for _, l := range o.labels {
		for i := range l {
			l[i] = graph.InvalidNode
		}
	}
	clear(o.mis)
	o.msf = algorithms.MSFStats{}
	o.cd = algorithms.CDResult{}
	for _, s := range o.ccStats {
		clear(s)
	}
	clear(o.rounds)
}

// verify checks one job's outputs against the references: exact component
// labels for CC-SV and CC-LP, a valid maximal independent set for MIS, the
// Kruskal forest weight (1e-6 relative) and size for MSF, and for Louvain a
// modularity that recomputes from the assignment within 1e-9 and reaches
// the reference's minimum.
func verify(w *workload, g *graph.Graph, ref *reference, o *outputs) error {
	for _, a := range w.algos {
		switch a {
		case algoCCSV, algoCCLP:
			got := o.labels[a]
			if i := mismatch(got, ref.comp); i >= 0 {
				return fmt.Errorf("%s: node %d labelled %d, want %d", a, i, got[i], ref.comp[i])
			}
		case algoMIS:
			if !graph.IsValidMIS(g, o.mis) {
				return errors.New("mis: not a maximal independent set")
			}
		case algoMSF:
			if d := math.Abs(o.msf.TotalWeight - ref.msfWeight); d > 1e-6*math.Max(1, ref.msfWeight) {
				return fmt.Errorf("msf: weight %.9g, want %.9g", o.msf.TotalWeight, ref.msfWeight)
			}
			if o.msf.ForestEdges != ref.forestSize {
				return fmt.Errorf("msf: %d forest edges, want %d", o.msf.ForestEdges, ref.forestSize)
			}
		case algoLouvain:
			if len(o.cd.Assignment) != g.NumNodes() {
				return fmt.Errorf("louvain: %d assignments for %d nodes", len(o.cd.Assignment), g.NumNodes())
			}
			if q := graph.Modularity(g, o.cd.Assignment); math.Abs(q-o.cd.Modularity) > 1e-9 {
				return fmt.Errorf("louvain: reported modularity %.12f, recomputed %.12f", o.cd.Modularity, q)
			}
			if o.cd.Modularity < ref.minModularity {
				return fmt.Errorf("louvain: modularity %.6f below the minimum %.6f", o.cd.Modularity, ref.minModularity)
			}
		}
	}
	return nil
}

// mismatch returns the first index where got and want differ, or -1.
func mismatch(got, want []graph.NodeID) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}
