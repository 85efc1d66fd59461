package algorithms

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/runtime"
)

func TestCommAccMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var acc commAcc
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		keySpace := 1 + rng.Intn(2*n+1)
		want := map[graph.NodeID]float64{}
		var order []graph.NodeID
		acc.reset(n)
		for i := 0; i < n; i++ {
			k := graph.NodeID(rng.Intn(keySpace)) * 4096 // collide in the low bits
			w := rng.Float64()
			if _, ok := want[k]; !ok {
				order = append(order, k)
			}
			want[k] += w
			acc.add(k, w)
		}
		if !slices.Equal(acc.keys, order) {
			t.Fatalf("trial %d: keys %v, want first-insertion order %v", trial, acc.keys, order)
		}
		for i, k := range acc.keys {
			if acc.sums[i] != want[k] || acc.get(k) != want[k] {
				t.Fatalf("trial %d: key %d sum %v / get %v, want %v",
					trial, k, acc.sums[i], acc.get(k), want[k])
			}
		}
		if acc.get(graph.InvalidNode) != 0 {
			t.Fatalf("trial %d: absent key reads non-zero", trial)
		}
	}
}

// TestCommAccWarmPathAllocs pins the move phase's per-vertex cost: once an
// accumulator has grown to a vertex's degree, reset/add/iterate allocate
// nothing (the Go map it replaced allocated on every vertex).
func TestCommAccWarmPathAllocs(t *testing.T) {
	var acc commAcc
	body := func() {
		acc.reset(64)
		for i := 0; i < 64; i++ {
			acc.add(graph.NodeID(i%23)*7, float64(i))
		}
		sum := 0.0
		for i := range acc.keys {
			sum += acc.sums[i]
		}
		if sum == 0 {
			t.Fatal("empty accumulator")
		}
	}
	body() // grow the table and entry slices
	if avg := testing.AllocsPerRun(50, body); avg != 0 {
		t.Fatalf("warm reset/add/iterate allocates %.1f times per run, want 0", avg)
	}
}

// contractMapRef is the map-based contraction the slice version replaced,
// kept as its oracle: supernodes numbered by first appearance, weights
// summed per (supernode, supernode) pair in node-then-edge order.
func contractMapRef(g *graph.Graph, assign []graph.NodeID) (*graph.Graph, map[graph.NodeID]graph.NodeID) {
	remap := make(map[graph.NodeID]graph.NodeID)
	for _, c := range assign {
		if _, ok := remap[c]; !ok {
			remap[c] = graph.NodeID(len(remap))
		}
	}
	agg := make(map[[2]graph.NodeID]float64)
	for n := 0; n < g.NumNodes(); n++ {
		cs := remap[assign[n]]
		lo, hi := g.EdgeRange(graph.NodeID(n))
		for e := lo; e < hi; e++ {
			cd := remap[assign[g.Dst(e)]]
			agg[[2]graph.NodeID{cs, cd}] += g.Weight(e)
		}
	}
	b := graph.NewBuilder(len(remap))
	for k, w := range agg {
		b.AddWeightedEdge(k[0], k[1], w)
	}
	return b.Build(), remap
}

func TestContractMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inputs := map[string]*graph.Graph{
		"communities": communityGraph(),
		"rmat":        gen.RMAT(9, 8, true, 3),
		"grid":        gen.Grid(12, 12, false, 1),
		"edgeless":    graph.NewBuilder(20).Build(),
	}
	for name, g := range inputs {
		n := g.NumNodes()
		for trial := 0; trial < 8; trial++ {
			// Labels are node IDs, as the refinement produces: a random
			// subset of representatives, from a handful to nearly all.
			reps := 1 + rng.Intn(n)
			assign := make([]graph.NodeID, n)
			for i := range assign {
				assign[i] = graph.NodeID(rng.Intn(n)) % graph.NodeID(reps)
			}
			want, wantRemap := contractMapRef(g, assign)
			got, remap := contract(g, assign)

			if len(remap) != n {
				t.Fatalf("%s/%d: remap length %d, want %d", name, trial, len(remap), n)
			}
			for label, c := range remap {
				wc, ok := wantRemap[graph.NodeID(label)]
				if !ok {
					wc = graph.InvalidNode
				}
				if c != wc {
					t.Fatalf("%s/%d: remap[%d] = %d, want %d", name, trial, label, c, wc)
				}
			}
			if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() ||
				got.Weighted() != want.Weighted() {
				t.Fatalf("%s/%d: coarse graph %d nodes/%d edges (weighted %v), want %d/%d (%v)",
					name, trial, got.NumNodes(), got.NumEdges(), got.Weighted(),
					want.NumNodes(), want.NumEdges(), want.Weighted())
			}
			for v := 0; v < got.NumNodes(); v++ {
				glo, ghi := got.EdgeRange(graph.NodeID(v))
				wlo, whi := want.EdgeRange(graph.NodeID(v))
				if glo != wlo || ghi != whi {
					t.Fatalf("%s/%d: node %d edge range [%d,%d), want [%d,%d)",
						name, trial, v, glo, ghi, wlo, whi)
				}
				for e := glo; e < ghi; e++ {
					if got.Dst(e) != want.Dst(e) ||
						math.Float64bits(got.Weight(e)) != math.Float64bits(want.Weight(e)) {
						t.Fatalf("%s/%d: edge %d = (%d, %v), want (%d, %v)", name, trial, e,
							got.Dst(e), got.Weight(e), want.Dst(e), want.Weight(e))
					}
				}
			}
		}
	}
}

// tiedGainsGraph builds gadgets whose outcome hangs on the 1e-12 tie
// window. Each gadget is a bridge node x linked to three heavy 5-cliques
// P < Q < R by edges whose weights rise in steps of 0.75e-12. Once the
// cliques have coalesced, x's gains toward P, Q and R are spaced less than
// the window apart while P and R are more than it apart, so the epsilon
// rule is not transitive: visiting P first ends at R, visiting R first
// ends at P. Only a fixed candidate order gives one answer.
func tiedGainsGraph() *graph.Graph {
	const gadgets, cliques, size = 6, 3, 5
	const perGadget = 1 + cliques*size
	b := graph.NewBuilder(gadgets * perGadget)
	edge := func(u, v int, w float64) {
		b.AddWeightedEdge(graph.NodeID(u), graph.NodeID(v), w)
		b.AddWeightedEdge(graph.NodeID(v), graph.NodeID(u), w)
	}
	for gi := 0; gi < gadgets; gi++ {
		x := gi * perGadget
		for c := 0; c < cliques; c++ {
			base := x + 1 + c*size
			for i := 0; i < size; i++ {
				for j := i + 1; j < size; j++ {
					edge(base+i, base+j, 2)
				}
			}
			edge(x, base, 1+float64(c)*0.75e-12)
		}
	}
	return b.Build()
}

// TestCommunityDetectionDeterministic runs Louvain and Leiden repeatedly
// on an input with tied gains: candidates are visited in edge order, so
// every run of one configuration must produce the same assignment.
func TestCommunityDetectionDeterministic(t *testing.T) {
	g := tiedGainsGraph()
	algos := map[string]func(*graph.Graph, runtime.Config, Config, CDOptions) (CDResult, error){
		"louvain": Louvain,
		"leiden":  Leiden,
	}
	for name, run := range algos {
		for _, threads := range []int{1, 2, 4} {
			for _, hosts := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/t%d/h%d", name, threads, hosts), func(t *testing.T) {
					var first CDResult
					for rep := 0; rep < 3; rep++ {
						res, err := run(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: threads},
							Config{}, CDOptions{})
						if err != nil {
							t.Fatal(err)
						}
						if rep == 0 {
							first = res
							continue
						}
						if !slices.Equal(res.Assignment, first.Assignment) ||
							res.Levels != first.Levels || res.Rounds != first.Rounds {
							t.Fatalf("run %d differs from run 0: levels %d/%d rounds %d/%d",
								rep, res.Levels, first.Levels, res.Rounds, first.Rounds)
						}
					}
				})
			}
		}
	}
}
