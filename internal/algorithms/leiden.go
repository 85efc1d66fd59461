package algorithms

import (
	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// Deterministic Leiden community detection (Traag et al.). Leiden improves
// on Louvain by refining each community into well-connected subcommunities
// before contraction, so badly-connected communities are split rather than
// frozen. Ours is structured like the paper's distributed implementation:
// the local-moving phase is shared with Louvain, and the refinement phase
// uses additional node-property maps — community, community totals,
// subcommunity, subcommunity totals, and subcommunity sizes (the paper's
// "five node property maps") — whose reductions target representative
// nodes (trans-vertex).
//
// The paper reports LD is on average 7x slower than LV (more edge
// iterations and more maps per refinement round) while improving community
// quality; the same relationship holds here.

// Leiden runs multi-level Leiden. See Louvain for driver semantics.
func Leiden(g *graph.Graph, ccfg runtime.Config, acfg Config, opts CDOptions) (CDResult, error) {
	return multilevel(g, ccfg, acfg, opts.withDefaults(), true)
}

// leidenRefine splits the communities in assignComm into well-connected
// subcommunities (SPMD). On return, this host's master range of assignSub
// holds subcommunity labels, which the driver contracts on (community
// labels in assignComm are what gets reported).
func leidenRefine(h *runtime.Host, cfg Config, opts CDOptions,
	assignComm, assignSub []graph.NodeID) {
	local := h.HP.Local
	lo, hi := h.HP.MasterRangeGlobal()

	localWeight := 0.0
	for n := 0; n < local.NumNodes(); n++ {
		elo, ehi := local.EdgeRange(graph.NodeID(n))
		for e := elo; e < ehi; e++ {
			localWeight += local.Weight(e)
		}
	}
	twoM := comm.AllReduceFloat64(h.EP, localWeight)
	if twoM == 0 {
		for g := lo; g < hi; g++ {
			assignSub[g] = g
		}
		return
	}

	// Map 1: community labels from the local-moving phase, republished as
	// a property map so mirrors are readable.
	cmap := cfg.newNodeMap(h, npm.Overwrite[graph.NodeID]())
	for g := lo; g < hi; g++ {
		cmap.Set(g, assignComm[g])
	}
	cmap.InitSync()
	cmap.PinMirrors()

	// Map 2: community totals, keyed by community representative.
	if cfg.requestActive() {
		requestLocalProxies(h, cmap)
	}
	ctot := cfg.newFloatMap(h, npm.SumFloat64())
	h.ParForMasters(func(_ int, n graph.NodeID) { ctot.Set(h.HP.GlobalID(n), 0) })
	ctot.InitSync()
	h.TimeCompute(func() {
		h.ParForMasters(func(tid int, n graph.NodeID) {
			gid := h.HP.GlobalID(n)
			if k := weightedDegree(local, n); k != 0 {
				ctot.Reduce(tid, cmap.Read(gid), k)
			}
		})
	})
	ctot.ReduceSync()

	// Map 3: subcommunity labels, initially singleton.
	sub := cfg.newNodeMap(h, npm.Overwrite[graph.NodeID]())
	initOwn(h, sub)
	sub.PinMirrors()

	// Map 4: subcommunity totals. Map 5: subcommunity sizes. Both are
	// keyed by subcommunity representative and reset every round with
	// Set+InitSync.
	subtot := cfg.newFloatMap(h, npm.SumFloat64())
	subsize := cfg.newFloatMap(h, npm.SumFloat64())
	// One k_{n->t} accumulator per worker thread (accum.go).
	accs := make([]commAcc, h.Threads)

	const refineRounds = 4
	for round := 0; round < refineRounds; round++ {
		if cfg.requestActive() {
			requestLocalProxies(h, cmap)
			requestLocalProxies(h, sub)
		}

		h.ParForMasters(func(_ int, n graph.NodeID) {
			gid := h.HP.GlobalID(n)
			subtot.Set(gid, 0)
			subsize.Set(gid, 0)
		})
		subtot.InitSync()
		subsize.InitSync()
		h.TimeCompute(func() {
			h.ParForMasters(func(tid int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				s := sub.Read(gid)
				subtot.Reduce(tid, s, weightedDegree(local, n))
				subsize.Reduce(tid, s, 1)
			})
		})
		subtot.ReduceSync()
		subsize.ReduceSync()

		// Request phase: totals of own community, own subcommunity, and
		// neighbor subcommunities (dynamically computed IDs).
		h.TimeCompute(func() {
			h.ParForMasters(func(_ int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				ctot.Request(cmap.Read(gid))
				s := sub.Read(gid)
				subtot.Request(s)
				subsize.Request(s)
				elo, ehi := local.EdgeRange(n)
				for e := elo; e < ehi; e++ {
					dgid := h.HP.GlobalID(local.Dst(e))
					if cmap.Read(dgid) == cmap.Read(gid) {
						subtot.Request(sub.Read(dgid))
					}
				}
			})
		})
		ctot.RequestSync()
		subtot.RequestSync()
		subsize.RequestSync()

		// Merge phase: a node still alone in its subcommunity and
		// well-connected to its community joins the best neighbor
		// subcommunity within its community.
		var moved runtime.CountReducer
		h.TimeCompute(func() {
			h.ParForMasters(func(tid int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				s := sub.Read(gid)
				if s != gid || subsize.Read(s) != 1 {
					return // only singleton subcommunities merge
				}
				c := cmap.Read(gid)
				kn := weightedDegree(local, n)
				if kn == 0 {
					return
				}
				// Connectivity gate: the node must be sufficiently
				// linked to the rest of its community (Traag et al.'s
				// gamma-scaled well-connectedness condition).
				intoC := 0.0
				links := &accs[tid]
				elo, ehi := local.EdgeRange(n)
				links.reset(int(ehi - elo))
				for e := elo; e < ehi; e++ {
					dgid := h.HP.GlobalID(local.Dst(e))
					if dgid == gid || cmap.Read(dgid) != c {
						continue
					}
					intoC += local.Weight(e)
					links.add(sub.Read(dgid), local.Weight(e))
				}
				if intoC < opts.Gamma*kn*(ctot.Read(c)-kn)/twoM {
					return // badly connected: stays singleton
				}
				best, bestGain := s, 0.0
				for i, t := range links.keys {
					if t == s {
						continue
					}
					gain := links.sums[i] - subtot.Read(t)*kn/twoM
					if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && gain > 0 && t < best) {
						best, bestGain = t, gain
					}
				}
				if best != s {
					sub.Reduce(tid, gid, best)
					moved.Reduce(1)
				}
			})
		})
		sub.ReduceSync()
		sub.BroadcastSync()
		moved.Sync(h.EP)
		if moved.Read() == 0 {
			break
		}
	}

	if cfg.requestActive() {
		requestLocalProxies(h, sub)
	}
	for g := lo; g < hi; g++ {
		assignSub[g] = sub.Read(g)
	}
	sub.UnpinMirrors()
	cmap.UnpinMirrors()
}

// weightedDegree sums the weights of n's local out-edges. Under the OEC
// partitioning LD runs with, masters hold their full adjacency, so this is
// the global weighted degree.
func weightedDegree(local *graph.Graph, n graph.NodeID) float64 {
	sum := 0.0
	lo, hi := local.EdgeRange(n)
	for e := lo; e < hi; e++ {
		sum += local.Weight(e)
	}
	return sum
}
