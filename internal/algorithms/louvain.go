package algorithms

import (
	"fmt"
	"time"

	"kimbap/internal/comm"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Deterministic Louvain community detection (Blondel et al., Table 2:
// adjacent + trans-vertex). Each level runs synchronous local-moving
// rounds: every node evaluates the modularity gain of joining each
// neighbor's community — reading the neighbor's community (adjacent) and
// the community totals stored on representative nodes (trans-vertex) — and
// the level ends when modularity stops improving. Communities are then
// contracted into supernodes and the process repeats on the coarse graph.
//
// As in the paper, a cluster's aggregate property (its total degree
// weight) is stored in its representative node's property, so reading and
// reducing it are trans-vertex operations on dynamically computed node
// IDs.
//
// Substitution note: refinement — the dominant cost and the part whose
// reductions the §6.4 ablation measures — is fully distributed; graph
// contraction between levels is performed centrally by the driver, which
// also builds a fresh partition per level (the paper excludes partitioning
// time from all measurements, and so do the benchmarks here).

// CDOptions tune the community-detection algorithms.
type CDOptions struct {
	// MaxLevels caps coarsening levels (default 10).
	MaxLevels int
	// MaxIters caps local-moving rounds per level (default 32).
	MaxIters int
	// MinDelta is the modularity-gain threshold that ends a level
	// (default 1e-6).
	MinDelta float64
	// EarlyTermination enables Vite's heuristic: a node that stayed in
	// its community for 4 consecutive rounds is skipped with 75%
	// (deterministic pseudo-random) probability.
	EarlyTermination bool
	// Gamma is Leiden's resolution parameter: higher values demand
	// stronger connectivity before a node merges into a subcommunity,
	// yielding finer refinement (default 1.0; unused by Louvain).
	Gamma float64
}

func (o CDOptions) withDefaults() CDOptions {
	if o.MaxLevels == 0 {
		o.MaxLevels = 10
	}
	if o.MaxIters == 0 {
		o.MaxIters = 32
	}
	if o.MinDelta == 0 {
		o.MinDelta = 1e-6
	}
	if o.Gamma == 0 {
		o.Gamma = 1.0
	}
	return o
}

// CDResult is the outcome of Louvain or Leiden.
type CDResult struct {
	// Assignment maps every original node to its final community label
	// (a representative node ID of the final coarse level).
	Assignment []graph.NodeID
	// Modularity of the final assignment on the original graph.
	Modularity float64
	Levels     int
	Rounds     int // total refinement rounds across levels
	// Compute and Comm sum the per-host phase timers across all levels;
	// Request/Reduce/Broadcast split Comm by sync phase.
	Compute, Comm              time.Duration
	Request, Reduce, Broadcast time.Duration
}

// Louvain runs the full multi-level algorithm, creating one simulated
// cluster per level (partitioning time is excluded from the timers, as in
// the paper). LV and LD require an edge-cut partition (Vite supports only
// edge-cuts); the policy is forced to OEC.
func Louvain(g *graph.Graph, ccfg runtime.Config, acfg Config, opts CDOptions) (CDResult, error) {
	return multilevel(g, ccfg, acfg, opts.withDefaults(), false)
}

func multilevel(g *graph.Graph, ccfg runtime.Config, acfg Config,
	opts CDOptions, leiden bool) (CDResult, error) {

	ccfg.Policy = partition.OEC
	// Community labels are used as node addresses throughout the refinement
	// and contraction (labels index the coarse graph), so the multi-level
	// driver keeps every level's cluster in natural ID order — vertex
	// reordering (DESIGN.md §14) applies to the flat SPMD algorithms only.
	ccfg.Reorder = ""
	var res CDResult
	// proj[i] = current coarse-level node holding original node i.
	proj := make([]graph.NodeID, g.NumNodes())
	for i := range proj {
		proj[i] = graph.NodeID(i)
	}
	// final[i] = community label of original node i after the latest level.
	final := make([]graph.NodeID, g.NumNodes())
	copy(final, proj)
	cur := g
	// initComm seeds each level's starting partition. Louvain always
	// starts levels from singletons; Leiden contracts on subcommunities
	// and starts the next level from the aggregated communities
	// (Traag et al.), which initComm carries across the contraction.
	var initComm []graph.NodeID

	for level := 0; level < opts.MaxLevels; level++ {
		cluster, err := runtime.NewCluster(cur, ccfg)
		if err != nil {
			return res, fmt.Errorf("louvain: level %d: %w", level, err)
		}
		// assignComm holds the level's community labels (the reported
		// clustering); assignSub the labels contraction groups by. For
		// Louvain they coincide; Leiden contracts on the finer
		// subcommunities while reporting communities (Traag et al.).
		assignComm := make([]graph.NodeID, cur.NumNodes())
		assignSub := assignComm
		if leiden {
			assignSub = make([]graph.NodeID, cur.NumNodes())
		}
		rounds := make([]int, ccfg.NumHosts)
		moved := make([]int64, ccfg.NumHosts)
		cluster.Run(func(h *runtime.Host) {
			r, m := refineLevel(h, acfg, opts, initComm, assignComm)
			rounds[h.Rank] = r
			moved[h.Rank] = m
			if leiden {
				leidenRefine(h, acfg, opts, assignComm, assignSub)
			}
		})
		for _, h := range cluster.Hosts() {
			res.Compute += h.Timers.Compute
			res.Comm += h.Timers.Comm()
			res.Request += h.Timers.Request
			res.Reduce += h.Timers.Reduce
			res.Broadcast += h.Timers.Broadcast
		}
		cluster.Close()
		res.Levels++
		res.Rounds += rounds[0]

		for i := range final {
			final[i] = assignComm[proj[i]]
		}
		if moved[0] == 0 && level > 0 {
			break // no node moved: converged
		}
		coarse, remap := contract(cur, assignSub)
		if leiden {
			initComm = make([]graph.NodeID, coarse.NumNodes())
			for n := 0; n < cur.NumNodes(); n++ {
				initComm[remap[assignSub[n]]] = remap[assignSub[assignComm[n]]]
			}
		}
		for i := range proj {
			proj[i] = remap[assignSub[proj[i]]]
		}
		if coarse.NumNodes() == cur.NumNodes() || coarse.NumNodes() <= 1 {
			break
		}
		cur = coarse
	}
	res.Assignment = final
	res.Modularity = graph.Modularity(g, final)
	return res, nil
}

// refineLevel runs the synchronous local-moving phase on one host (SPMD)
// and fills this host's master range of assign. initComm optionally seeds
// the starting partition (nil means singletons). Returns the number of
// rounds and the total nodes moved (global, identical on all hosts).
func refineLevel(h *runtime.Host, cfg Config, opts CDOptions,
	initComm, assign []graph.NodeID) (rounds int, totalMoved int64) {

	local := h.HP.Local

	// Total directed edge weight (2m) is a level constant.
	localWeight := 0.0
	for n := 0; n < local.NumNodes(); n++ {
		lo, hi := local.EdgeRange(graph.NodeID(n))
		for e := lo; e < hi; e++ {
			localWeight += local.Weight(e)
		}
	}
	twoM := comm.AllReduceFloat64(h.EP, localWeight)
	if twoM == 0 {
		lo, hi := h.HP.MasterRangeGlobal()
		for g := lo; g < hi; g++ {
			assign[g] = g
		}
		return 0, 0
	}

	// Weighted degree per node (global sums; local degrees are partial
	// only under vertex cuts, but the sum reduction is correct for any
	// policy).
	wdeg := cfg.newFloatMap(h, npm.SumFloat64())
	h.ParForNodes(func(_ int, n graph.NodeID) { wdeg.Set(h.HP.GlobalID(n), 0) })
	wdeg.InitSync()
	h.TimeCompute(func() {
		h.ParForNodes(func(tid int, n graph.NodeID) {
			sum := 0.0
			lo, hi := local.EdgeRange(n)
			for e := lo; e < hi; e++ {
				sum += local.Weight(e)
			}
			if sum != 0 {
				wdeg.Reduce(tid, h.HP.GlobalID(n), sum)
			}
		})
	})
	wdeg.ReduceSync()
	wdeg.PinMirrors()

	// Community of each node: the seed partition if given, else itself.
	// Only the node's owner writes it, so Overwrite is race free.
	cm := cfg.newNodeMap(h, npm.Overwrite[graph.NodeID]())
	if initComm == nil {
		initOwn(h, cm)
	} else {
		h.ParForNodes(func(_ int, n graph.NodeID) {
			gid := h.HP.GlobalID(n)
			cm.Set(gid, initComm[gid])
		})
		cm.InitSync()
	}
	cm.PinMirrors()

	// Vite early-termination state: consecutive rounds a master stayed put.
	var stable []uint8
	if opts.EarlyTermination {
		stable = make([]uint8, h.HP.NumMasters)
	}

	// Community totals and sizes, keyed by representative node. The maps
	// live for the whole level; every round resets them with Set+InitSync.
	ctot := cfg.newFloatMap(h, npm.SumFloat64())
	csize := cfg.newFloatMap(h, npm.SumFloat64())
	// One k_{n->c} accumulator per worker thread (accum.go).
	accs := make([]commAcc, h.Threads)

	prevQ := -1.0
	for rounds = 0; rounds < opts.MaxIters; rounds++ {
		if cfg.requestActive() {
			requestLocalProxies(h, cm)
			requestLocalProxies(h, wdeg)
		}

		h.ParForMasters(func(_ int, n graph.NodeID) {
			gid := h.HP.GlobalID(n)
			ctot.Set(gid, 0)
			csize.Set(gid, 0)
		})
		ctot.InitSync()
		csize.InitSync()
		h.TimeCompute(func() {
			h.ParForMasters(func(tid int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				c := cm.Read(gid)
				csize.Reduce(tid, c, 1)
				k := wdeg.Read(gid)
				if k != 0 {
					ctot.Reduce(tid, c, k)
				}
			})
		})
		ctot.ReduceSync()
		csize.ReduceSync()

		// Round modularity: Q = intra/2m - sum(tot_c^2)/(2m)^2.
		var intra, totSq runtime.SumReducer
		if cfg.requestActive() {
			requestLocalProxies(h, ctot)
			requestLocalProxies(h, cm)
		}
		h.TimeCompute(func() {
			h.ParForNodes(func(tid int, n graph.NodeID) {
				cn := cm.Read(h.HP.GlobalID(n))
				lo, hi := local.EdgeRange(n)
				for e := lo; e < hi; e++ {
					if cm.Read(h.HP.GlobalID(local.Dst(e))) == cn {
						intra.Reduce(local.Weight(e))
					}
				}
			})
			h.ParForMasters(func(tid int, n graph.NodeID) {
				t := ctot.Read(h.HP.GlobalID(n))
				if t != 0 {
					totSq.Reduce(t * t)
				}
			})
		})
		intra.Sync(h.EP)
		totSq.Sync(h.EP)
		q := intra.Read()/twoM - totSq.Read()/(twoM*twoM)
		if q-prevQ < opts.MinDelta && rounds > 0 {
			break
		}
		prevQ = q

		// Request phase: each master needs the totals of its own and all
		// neighbor communities — dynamically computed node IDs.
		h.TimeCompute(func() {
			h.ParForMasters(func(_ int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				own := cm.Read(gid)
				ctot.Request(own)
				csize.Request(own)
				lo, hi := local.EdgeRange(n)
				for e := lo; e < hi; e++ {
					c := cm.Read(h.HP.GlobalID(local.Dst(e)))
					ctot.Request(c)
					csize.Request(c)
				}
			})
		})
		ctot.RequestSync()
		csize.RequestSync()

		// Move phase: greedy best community with deterministic
		// tie-breaking (highest gain, then smallest community ID; ties
		// with the current community keep the node put unless the
		// candidate ID is smaller, damping oscillation).
		var moved runtime.CountReducer
		h.TimeCompute(func() {
			h.ParForMasters(func(tid int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				if opts.EarlyTermination && stable[n] >= 4 {
					// Skip with probability 3/4, deterministically.
					if (uint32(gid)*2654435769+uint32(rounds))&3 != 0 {
						return
					}
				}
				a := cm.Read(gid)
				kn := wdeg.Read(gid)
				if kn == 0 {
					return
				}
				// Accumulate k_{n->c} per neighbor community.
				links := &accs[tid]
				lo, hi := local.EdgeRange(n)
				links.reset(int(hi - lo))
				for e := lo; e < hi; e++ {
					dgid := h.HP.GlobalID(local.Dst(e))
					if dgid == gid {
						continue
					}
					links.add(cm.Read(dgid), local.Weight(e))
				}
				base := links.get(a) - (ctot.Read(a)-kn)*kn/twoM
				best, bestGain := a, base
				for i, c := range links.keys {
					if c == a {
						continue
					}
					gain := links.sums[i] - ctot.Read(c)*kn/twoM
					if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && c < best) {
						best, bestGain = c, gain
					}
				}
				if best != a && csize.Read(a) == 1 && csize.Read(best) == 1 && best > a {
					// Grappolo's swap-breaking rule: between two singleton
					// communities, only the move toward the smaller ID is
					// allowed, which makes synchronous rounds converge.
					best = a
				}
				if best != a {
					cm.Reduce(tid, gid, best)
					moved.Reduce(1)
					if opts.EarlyTermination {
						stable[n] = 0
					}
				} else if opts.EarlyTermination && stable[n] < 4 {
					stable[n]++
				}
			})
		})
		cm.ReduceSync()
		cm.BroadcastSync()
		moved.Sync(h.EP)
		totalMoved += moved.Read() // global count, identical on all hosts
		if moved.Read() == 0 {
			rounds++
			break
		}
	}

	cm.UnpinMirrors()
	wdeg.UnpinMirrors()
	CollectNodeValues(h, cm, assign)
	cfg.recordStats(cm)
	cfg.recordStats(wdeg)
	cfg.recordStats(ctot)
	cfg.recordStats(csize)
	return rounds, totalMoved
}

// contract builds the coarse graph: one supernode per community, edge
// weights aggregated, intra-community weight kept as supernode self-loops
// so modularity is preserved across levels. remap translates community
// labels to coarse node IDs: it is indexed by label, holds
// graph.InvalidNode for labels no node carries, and numbers supernodes in
// order of first appearance in assign.
//
// Nodes are grouped by supernode with a counting sort (which keeps node
// order within a group), and each supernode's outgoing weights are summed
// in one commAcc, node by node and edge by edge — the order a map keyed by
// (supernode, supernode) would see, so coarse weights are bit-identical to
// it.
//
//kimbap:deterministic
func contract(g *graph.Graph, assign []graph.NodeID) (*graph.Graph, []graph.NodeID) {
	remap := make([]graph.NodeID, g.NumNodes())
	for i := range remap {
		remap[i] = graph.InvalidNode
	}
	numC := 0
	for _, c := range assign {
		if remap[c] == graph.InvalidNode {
			remap[c] = graph.NodeID(numC)
			numC++
		}
	}
	// start[s]..start[s+1] indexes supernode s's members.
	start := make([]int, numC+1)
	for _, c := range assign {
		start[remap[c]+1]++
	}
	for s := 0; s < numC; s++ {
		start[s+1] += start[s]
	}
	members := make([]graph.NodeID, len(assign))
	next := append([]int(nil), start[:numC]...)
	for n, c := range assign {
		s := remap[c]
		members[next[s]] = graph.NodeID(n)
		next[s]++
	}

	// A coarse edge stands for at least one fine edge.
	maxEdges := min(g.NumEdges(), int64(numC)*int64(numC))
	var srcs, dsts []graph.NodeID
	var weights []float64
	if maxEdges > 0 {
		srcs = make([]graph.NodeID, 0, maxEdges)
		dsts = make([]graph.NodeID, 0, maxEdges)
		weights = make([]float64, 0, maxEdges)
	}
	var acc commAcc
	for s := 0; s < numC; s++ {
		group := members[start[s]:start[s+1]]
		deg := 0
		for _, n := range group {
			deg += g.Degree(n)
		}
		acc.reset(min(deg, numC))
		for _, n := range group {
			lo, hi := g.EdgeRange(n)
			for e := lo; e < hi; e++ {
				acc.add(remap[assign[g.Dst(e)]], g.Weight(e))
			}
		}
		for i, d := range acc.keys {
			srcs = append(srcs, graph.NodeID(s))
			dsts = append(dsts, d)
			weights = append(weights, acc.sums[i])
		}
	}
	return graph.NewBuilderFromArrays(numC, srcs, dsts, weights).Build(), remap
}

// Preset-driven helper so benchmarks and examples can run LV on the
// paper's graph classes without repeating setup.
func LouvainOnPreset(p gen.Preset, ccfg runtime.Config, acfg Config) (CDResult, error) {
	return Louvain(gen.Build(p), ccfg, acfg, CDOptions{})
}
