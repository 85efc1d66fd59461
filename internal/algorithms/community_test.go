package algorithms

import (
	"math"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

func communityGraph() *graph.Graph {
	return gen.Communities(6, 30, 5, 1, true, 21)
}

func TestLouvainFindsPlantedCommunities(t *testing.T) {
	g := communityGraph()
	for _, hosts := range []int{1, 2, 4} {
		res, err := Louvain(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 3},
			Config{}, CDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Modularity < 0.4 {
			t.Fatalf("%d hosts: modularity %.3f, want > 0.4", hosts, res.Modularity)
		}
		if res.Levels == 0 || res.Rounds == 0 {
			t.Fatalf("%d hosts: no work recorded: %+v", hosts, res)
		}
		if len(res.Assignment) != g.NumNodes() {
			t.Fatalf("assignment length %d", len(res.Assignment))
		}
		// Modularity reported must match an independent recomputation.
		q := graph.Modularity(g, res.Assignment)
		if math.Abs(q-res.Modularity) > 1e-9 {
			t.Fatalf("reported Q %.6f != recomputed %.6f", res.Modularity, q)
		}
	}
}

func TestLouvainBeatsSingletonAndMonolith(t *testing.T) {
	g := communityGraph()
	res, err := Louvain(g, runtime.Config{NumHosts: 2}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	singleton := make([]graph.NodeID, g.NumNodes())
	for i := range singleton {
		singleton[i] = graph.NodeID(i)
	}
	monolith := make([]graph.NodeID, g.NumNodes())
	if res.Modularity <= graph.Modularity(g, singleton) ||
		res.Modularity <= graph.Modularity(g, monolith) {
		t.Fatalf("Louvain Q=%.3f no better than trivial assignments", res.Modularity)
	}
}

func TestLouvainConsistentAcrossHostCounts(t *testing.T) {
	g := communityGraph()
	r1, err := Louvain(g, runtime.Config{NumHosts: 1}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Louvain(g, runtime.Config{NumHosts: 4}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Move decisions are synchronous and deterministic up to float
	// round-off in community totals; allow small quality drift.
	if math.Abs(r1.Modularity-r4.Modularity) > 0.05 {
		t.Fatalf("modularity drifted across hosts: %.4f vs %.4f",
			r1.Modularity, r4.Modularity)
	}
}

func TestLouvainAllVariants(t *testing.T) {
	g := gen.Communities(4, 20, 4, 1, true, 5)
	for _, v := range npm.Variants {
		t.Run(string(v), func(t *testing.T) {
			cfg := Config{Variant: v}
			if v == npm.MC {
				cfg.Store = kvstore.NewCluster(2, 2)
			}
			res, err := Louvain(g, runtime.Config{NumHosts: 2}, cfg, CDOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Modularity < 0.3 {
				t.Fatalf("variant %s: modularity %.3f", v, res.Modularity)
			}
		})
	}
}

func TestLeidenAllVariants(t *testing.T) {
	g := gen.Communities(4, 20, 4, 1, true, 5)
	for _, v := range npm.Variants {
		t.Run(string(v), func(t *testing.T) {
			cfg := Config{Variant: v}
			if v == npm.MC {
				cfg.Store = kvstore.NewCluster(2, 2)
			}
			res, err := Leiden(g, runtime.Config{NumHosts: 2}, cfg, CDOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Modularity < 0.3 {
				t.Fatalf("variant %s: modularity %.3f", v, res.Modularity)
			}
		})
	}
}

func TestLouvainEarlyTermination(t *testing.T) {
	g := communityGraph()
	res, err := Louvain(g, runtime.Config{NumHosts: 2}, Config{},
		CDOptions{EarlyTermination: true})
	if err != nil {
		t.Fatal(err)
	}
	// Vite's heuristic trades some quality for speed but must stay sane.
	if res.Modularity < 0.35 {
		t.Fatalf("early-termination modularity %.3f too low", res.Modularity)
	}
}

func TestLouvainTimersPopulated(t *testing.T) {
	g := communityGraph()
	res, err := Louvain(g, runtime.Config{NumHosts: 2}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compute <= 0 || res.Comm <= 0 {
		t.Fatalf("timers not populated: %+v", res)
	}
}

func TestLouvainEdgelessGraph(t *testing.T) {
	b := graph.NewBuilder(10)
	g := b.Build()
	res, err := Louvain(g, runtime.Config{NumHosts: 2}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity != 0 {
		t.Fatalf("edgeless modularity = %v", res.Modularity)
	}
}

func TestLeidenQuality(t *testing.T) {
	g := communityGraph()
	for _, hosts := range []int{1, 3} {
		res, err := Leiden(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 3},
			Config{}, CDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Modularity < 0.4 {
			t.Fatalf("%d hosts: Leiden modularity %.3f", hosts, res.Modularity)
		}
		q := graph.Modularity(g, res.Assignment)
		if math.Abs(q-res.Modularity) > 1e-9 {
			t.Fatalf("reported Q %.6f != recomputed %.6f", res.Modularity, q)
		}
	}
}

func TestLeidenComparableToLouvain(t *testing.T) {
	// The paper reports Leiden improves or matches Louvain quality.
	g := gen.Communities(8, 25, 4, 2, true, 33)
	lv, err := Louvain(g, runtime.Config{NumHosts: 2}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := Leiden(g, runtime.Config{NumHosts: 2}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ld.Modularity < lv.Modularity-0.05 {
		t.Fatalf("Leiden Q=%.4f much worse than Louvain Q=%.4f",
			ld.Modularity, lv.Modularity)
	}
}

func TestContractPreservesWeight(t *testing.T) {
	g := communityGraph()
	assign := make([]graph.NodeID, g.NumNodes())
	for i := range assign {
		assign[i] = graph.NodeID(i % 7) // arbitrary grouping
	}
	coarse, remap := contract(g, assign)
	if coarse.NumNodes() != 7 {
		t.Fatalf("coarse nodes = %d, want 7", coarse.NumNodes())
	}
	mapped := 0
	for _, c := range remap {
		if c != graph.InvalidNode {
			mapped++
		}
	}
	if mapped != 7 {
		t.Fatalf("remap maps %d labels, want 7", mapped)
	}
	if math.Abs(coarse.TotalWeight()-g.TotalWeight()) > 1e-6 {
		t.Fatalf("contraction lost weight: %v vs %v",
			coarse.TotalWeight(), g.TotalWeight())
	}
}

func TestContractIdentityKeepsStructure(t *testing.T) {
	g := gen.Grid(4, 4, true, 1)
	assign := make([]graph.NodeID, g.NumNodes())
	for i := range assign {
		assign[i] = graph.NodeID(i)
	}
	coarse, _ := contract(g, assign)
	if coarse.NumNodes() != g.NumNodes() || coarse.NumEdges() != g.NumEdges() {
		t.Fatal("identity contraction changed the graph")
	}
}

func TestLeidenGammaControlsRefinement(t *testing.T) {
	// A permissive gamma merges subcommunities aggressively; a strict one
	// keeps more nodes singleton. Both must stay valid clusterings.
	g := communityGraph()
	loose, err := Leiden(g, runtime.Config{NumHosts: 2}, Config{},
		CDOptions{Gamma: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Leiden(g, runtime.Config{NumHosts: 2}, Config{},
		CDOptions{Gamma: 10})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Modularity < 0.3 || strict.Modularity < 0.3 {
		t.Fatalf("gamma variants degraded quality: %.3f / %.3f",
			loose.Modularity, strict.Modularity)
	}
}
