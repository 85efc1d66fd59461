package algorithms

import (
	"math"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// Boruvka minimum spanning forest (Table 2: trans-vertex only). Each round
// every component selects its minimum-weight outgoing edge with a
// min-reduction onto the component root's property, roots merge pairwise,
// and pointer jumping collapses the resulting parent chains. Two
// node-property maps are used, as in the paper: the parent map and a
// per-round candidate-edge map keyed by component root.

// MinEdge is the candidate-edge property: an undirected edge in normalized
// (A < B) form with its weight. The zero value is not meaningful; use
// infEdge as the reduction identity.
type MinEdge struct {
	W    float64
	A, B graph.NodeID
}

func infEdge() MinEdge {
	return MinEdge{W: math.Inf(1), A: graph.InvalidNode, B: graph.InvalidNode}
}

// less orders edges by (weight, endpoints), a total order that makes the
// min-reduction deterministic and cycle-free (mutual minimum picks are
// always the identical edge).
func (e MinEdge) less(o MinEdge) bool {
	if e.W != o.W {
		return e.W < o.W
	}
	if e.A != o.A {
		return e.A < o.A
	}
	return e.B < o.B
}

// MinEdgeOp is the min reduction over candidate edges.
func MinEdgeOp() npm.ReduceOp[MinEdge] {
	return npm.ReduceOp[MinEdge]{
		Name: "min-edge",
		Combine: func(a, b MinEdge) MinEdge {
			if b.less(a) {
				return b
			}
			return a
		},
		Identity:    infEdge(),
		HasIdentity: true,
	}
}

// MinEdgeCodec serializes MinEdge values (16 bytes).
type MinEdgeCodec struct{}

// Append implements npm.Codec.
func (MinEdgeCodec) Append(b []byte, e MinEdge) []byte {
	b = comm.AppendFloat64(b, e.W)
	b = comm.AppendUint32(b, uint32(e.A))
	return comm.AppendUint32(b, uint32(e.B))
}

// Read implements npm.Codec.
func (MinEdgeCodec) Read(b []byte) (MinEdge, []byte) {
	var e MinEdge
	e.W, b = comm.ReadFloat64(b)
	var u uint32
	u, b = comm.ReadUint32(b)
	e.A = graph.NodeID(u)
	u, b = comm.ReadUint32(b)
	e.B = graph.NodeID(u)
	return e, b
}

// Size implements npm.Codec.
func (MinEdgeCodec) Size() int { return 16 }

// MSFStats reports the result of a Boruvka run.
type MSFStats struct {
	Rounds      int
	TotalWeight float64
	ForestEdges int64
}

// MSF computes a minimum spanning forest (SPMD). The input graph must be
// symmetric and weighted. comp (length = global node count) receives this
// host's master component labels; the forest weight is in the returned
// stats (identical on every host).
func MSF(h *runtime.Host, cfg Config, comp []graph.NodeID) MSFStats {
	// The parent map uses Overwrite, not min: each component root writes
	// only its own parent pointer when it attaches, so no union is ever
	// lost to a competing reduction (a min-reduce could overwrite one
	// union with another, counting an edge whose merge never happened).
	parent := cfg.newNodeMap(h, npm.Overwrite[graph.NodeID]())
	initOwn(h, parent)

	var stats MSFStats
	var weight runtime.SumReducer
	var edges runtime.CountReducer
	var workDone runtime.BoolReducer

	// frP drives the pointer-jumping phases via the parent map's change
	// activation. frProp is the proposer frontier, managed by the algorithm
	// itself (works on every backend): a proxy retires permanently once all
	// its local edges stay inside one component — components only merge, so
	// a retired proxy can never again propose a crossing edge.
	frP := cfg.newFrontier(h, parent)
	var frProp *runtime.Frontier
	if !cfg.Dense {
		frProp = runtime.NewFrontier(h.HP.NumLocal())
		frProp.ActivateAll()
		frProp.Advance()
	}

	// Each component root's cheapest outgoing edge, reset every round.
	cand := npm.New(npm.Options[MinEdge]{
		Host: h, Op: MinEdgeOp(), Codec: MinEdgeCodec{},
		Variant: cfg.Variant, Store: cfg.Store,
	})
	for {
		stats.Rounds++
		// 1. Collapse parent chains so parents are component roots.
		ccShortcut(h, cfg, parent, frP, nil, nil, nil)

		// 2. Candidate map reset: masters hold no candidate edge.
		h.ParForMasters(func(_ int, local graph.NodeID) {
			cand.Set(h.HP.GlobalID(local), infEdge())
		})
		cand.InitSync()

		// 3. Candidate selection: every node proposes its cheapest edge
		// that leaves its component, reduced onto the component root
		// (an arbitrary node: trans-vertex).
		parent.PinMirrors()
		if cfg.requestActive() {
			requestLocalProxies(h, parent)
		}
		local := h.HP.Local
		propBody := func(tid int, n graph.NodeID) {
			gid := h.HP.GlobalID(n)
			rs := parent.Read(gid)
			crossing := false
			lo, hi := local.EdgeRange(n)
			for e := lo; e < hi; e++ {
				dgid := h.HP.GlobalID(local.Dst(e))
				rd := parent.Read(dgid)
				if rs == rd {
					continue
				}
				crossing = true
				// Normalize endpoints in original-ID space so the edge's
				// identity — and the (weight, endpoints) total order — is
				// the same with reordering on or off; the root value rs is
				// an original ID too, so address the reduce at its current
				// ID (DESIGN.md §14).
				oa, ob := h.HP.OriginalID(gid), h.HP.OriginalID(dgid)
				edge := MinEdge{W: local.Weight(e), A: min(oa, ob), B: max(oa, ob)}
				cand.Reduce(tid, h.HP.CurrentID(rs), edge)
			}
			if crossing && frProp != nil {
				frProp.Activate(int(n))
			}
		}
		h.TimeCompute(func() {
			if frProp != nil {
				h.ParForActive(frProp, propBody)
			} else {
				h.ParForNodes(propBody)
			}
		})
		cand.ReduceSync()
		if frProp != nil {
			frProp.Advance()
		}

		// 4a. Request phase: roots need the parents of their candidate
		// edge's endpoints (arbitrary nodes).
		if cfg.requestActive() {
			requestLocalProxies(h, cand)
		}
		h.TimeCompute(func() {
			h.ParForMasters(func(_ int, local graph.NodeID) {
				c := cand.Read(h.HP.GlobalID(local))
				if !math.IsInf(c.W, 1) {
					parent.Request(h.HP.CurrentID(c.A))
					parent.Request(h.HP.CurrentID(c.B))
				}
			})
		})
		parent.RequestSync()

		// 4b. Request phase: roots need the other root's candidate to
		// de-duplicate mutually selected edges.
		h.TimeCompute(func() {
			h.ParForMasters(func(_ int, local graph.NodeID) {
				gid := h.HP.GlobalID(local)
				c := cand.Read(gid)
				if math.IsInf(c.W, 1) {
					return
				}
				ra, rb := parent.Read(h.HP.CurrentID(c.A)), parent.Read(h.HP.CurrentID(c.B))
				other := ra
				if ra == h.HP.OriginalID(gid) {
					other = rb
				}
				cand.Request(h.HP.CurrentID(other))
			})
		})
		cand.RequestSync()

		// 4c. Merge: every root attaches itself to the other endpoint's
		// root and accounts its candidate edge. Mutual picks are always
		// the identical edge (the total order on edges guarantees it);
		// the smaller root of a mutual pair stays put so the pointer
		// graph is acyclic, and the larger side accounts the edge.
		workDone.Set(false)
		h.TimeCompute(func() {
			h.ParForMasters(func(tid int, local graph.NodeID) {
				gid := h.HP.GlobalID(local)
				c := cand.Read(gid)
				if math.IsInf(c.W, 1) {
					return
				}
				// Root comparisons run in original-ID space (parent values
				// and edge endpoints both live there); map lookups translate
				// to current IDs at the access.
				og := h.HP.OriginalID(gid)
				ra, rb := parent.Read(h.HP.CurrentID(c.A)), parent.Read(h.HP.CurrentID(c.B))
				other := ra
				if ra == og {
					other = rb
				}
				if other == og {
					return // endpoints merged earlier in this round's view
				}
				if cand.Read(h.HP.CurrentID(other)) == c && og < other {
					return // smaller root of a mutual pair: stays the root
				}
				parent.Reduce(tid, gid, other) // single writer: own pointer
				workDone.Reduce(true)
				weight.Reduce(c.W)
				edges.Reduce(1)
			})
		})
		parent.ReduceSync()
		parent.UnpinMirrors()

		workDone.Sync(h.EP)
		if !workDone.Read() || stats.Rounds >= cfg.maxRounds() {
			break
		}
	}

	// Final collapse so labels are roots, then collect.
	ccShortcut(h, cfg, parent, frP, nil, nil, nil)
	weight.Sync(h.EP)
	edges.Sync(h.EP)
	stats.TotalWeight = weight.Read()
	stats.ForestEdges = edges.Read()
	CollectNodeValues(h, parent, comp)
	cfg.recordStats(cand)
	cfg.recordStats(parent)
	return stats
}
