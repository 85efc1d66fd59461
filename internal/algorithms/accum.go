package algorithms

import (
	"math/bits"

	"kimbap/internal/graph"
)

// commAcc sums float weights keyed by community label: the k_{n->c}
// accumulator of Louvain's move phase, Leiden's merge phase and the
// contraction between levels. It replaces a per-vertex Go map, whose
// construction dominated those loops (the paper attributes Vite's slower
// Louvain to exactly that cost).
//
// Each worker thread owns one accumulator for a whole level. It is an
// open-addressing table whose slots index entries stored in
// first-insertion order, so
//
//   - reset is O(entries): only the slots of the previous vertex's keys
//     are cleared, never the whole table;
//   - the table grows only when reset is told a vertex may bring more
//     distinct keys than it has room for at half load, so add never
//     rehashes;
//   - iteration follows edge order, making candidate order — and with it
//     the tie-breaking of near-equal gains — deterministic. A Go map's
//     randomized iteration order made those ties resolve differently from
//     run to run.
//
// A key's sum accumulates its edges in the order they are added, starting
// from the first weight, so sums are bit-identical to `m[k] += w` on a map
// that starts at zero.
type commAcc struct {
	table []int32 // entry index + 1; 0 marks an empty slot
	shift uint32  // 32 - log2(len(table))
	keys  []graph.NodeID
	sums  []float64 // parallel to keys
	at    []int32   // table slot of each entry, for the O(entries) reset
}

// reset empties the accumulator and makes room for up to n distinct keys.
func (a *commAcc) reset(n int) {
	for _, p := range a.at {
		a.table[p] = 0
	}
	a.keys, a.sums, a.at = a.keys[:0], a.sums[:0], a.at[:0]
	if 2*n > len(a.table) {
		size := max(16, 1<<bits.Len(uint(2*n-1)))
		a.table = make([]int32, size)
		a.shift = uint32(32 - bits.TrailingZeros(uint(size)))
	}
}

// home is k's first probe slot (Fibonacci hashing).
func (a *commAcc) home(k graph.NodeID) uint32 { return (uint32(k) * 2654435769) >> a.shift }

// add accumulates w into key k. The caller's reset must have reserved room
// for every distinct key added since.
func (a *commAcc) add(k graph.NodeID, w float64) {
	mask := uint32(len(a.table) - 1)
	p := a.home(k)
	for {
		e := a.table[p]
		if e == 0 {
			a.table[p] = int32(len(a.keys)) + 1
			a.keys = append(a.keys, k)
			a.sums = append(a.sums, w)
			a.at = append(a.at, int32(p))
			return
		}
		if a.keys[e-1] == k {
			a.sums[e-1] += w
			return
		}
		p = (p + 1) & mask
	}
}

// get returns k's sum, or 0 if k was not added since the last reset.
func (a *commAcc) get(k graph.NodeID) float64 {
	if len(a.keys) == 0 {
		return 0
	}
	mask := uint32(len(a.table) - 1)
	p := a.home(k)
	for {
		e := a.table[p]
		if e == 0 {
			return 0
		}
		if a.keys[e-1] == k {
			return a.sums[e-1]
		}
		p = (p + 1) & mask
	}
}
