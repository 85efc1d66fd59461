package npm

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// fullMap is the Kimbap node-property map with all three runtime
// optimizations from §4.2:
//
//   - GAR: master properties live in a dense vector indexed by
//     (global - masterLo); requested remote properties live in parallel
//     sorted arrays read by binary search (Figure 6).
//   - CF: Reduce goes to per-thread maps; ReduceSync combines them with a
//     disjoint key-range pass per thread, so no locks or CAS are ever
//     needed (Figure 7).
//   - SGR: one partial-aggregate message per host pair per round; partial
//     values are gathered and reduced onto master values by key-range
//     parallel loops.
//
// Pinned mirrors (PM) additionally materialize mirror proxies and replace
// request/response traffic with one-way positional broadcasts carrying a
// dirty bitmask and only the changed values (Gluon's metadata
// minimization, exploiting the partition's temporal invariance).
type fullMap[V comparable] struct {
	h     *runtime.Host
	hp    *partition.HostPartition
	op    ReduceOp[V]
	codec Codec[V]

	masterLo graph.NodeID
	masterHi graph.NodeID
	masters  []V
	// masterDirty tracks masters changed since the last broadcast, indexed
	// by master-local ID.
	masterDirty *runtime.Bitset

	pinned  bool
	mirrors []V // indexed by (local - NumMasters) when pinned

	// Pull-round state (see pull.go). mirrorsFresh tracks whether pinned
	// mirrors reflect the current master values — true right after a
	// broadcast, false once ReduceSync (or a pull round itself) changes
	// masters behind them. It is read and written only at phase
	// boundaries on the program goroutine, never from operator threads.
	// pullSnap is the reusable round-start snapshot of the master vector
	// that gives pull rounds Jacobi semantics regardless of scan order.
	mirrorsFresh bool
	pullSnap     []V

	// Async apply-path state (see async.go), allocated when an
	// AsyncNodeHandle attaches. mirrorDirty marks pinned mirrors whose
	// value a drain changed in place; ReduceSync flushes them to their
	// owners as whole-value partials (sound only for idempotent ops,
	// which the handle enforces). The counters are the policy engine's
	// contention telemetry.
	mirrorDirty *runtime.Bitset
	casApplied  atomic.Int64
	casRetries  atomic.Int64

	reqBits   *runtime.Bitset // global IDs requested this round
	cacheKeys []graph.NodeID  // sorted requested remote IDs
	cacheVals []V
	// cacheSlot is the dense global→cache translation table (DESIGN.md
	// §14): cacheSlot[g] = index into cacheVals + 1, 0 for uncached. It
	// replaces the per-Read binary search over cacheKeys with one array
	// index. Allocated lazily on the first non-empty cache (request-free
	// algorithms never pay for it) and retained across rounds — the
	// ReduceSync cache drop zeroes only the previously cached keys'
	// slots, O(cache) not O(n).
	cacheSlot []int32

	tl       []*bucketedMap[V] // per-thread reduce maps, bucketed by combine range
	combined []*localMap[V]    // per-thread combine outputs (reused)

	// Persistent sync-phase buffers, reused across BSP rounds so warm
	// ReduceSync/BroadcastSync rounds allocate nothing (see the comm
	// package's buffer-ownership contract).
	cells     [][][][]byte // [tid][dest][receiver gather thread] encoded entries
	cellN     [][][]int    // [tid][dest][rt] entry counts, for the sparse/dense form choice
	sendBufs  [2][][]byte  // per-dest reduce payloads, double-buffered
	sendGen   int
	bcastBufs [2][][]byte // per-dest broadcast payloads, double-buffered
	bcastGen  int
	recvIn    [][]byte // receive slice for the exchanges (one round at a time)

	// Scratch for assembling one dense-form section at a time
	// (reducePayload runs destinations sequentially): a bitmap over the
	// section's key range and value slots indexed by base-relative key.
	denseMask []byte
	denseVals []byte

	// frontier, when attached via SetFrontier, receives next-round
	// activations for every local proxy whose value changes during a sync
	// phase: masters from applyToMaster, pinned mirrors from broadcast
	// decode. Activation is one atomic bit set (conflict free).
	frontier *runtime.Frontier

	// Encode state for the overlapped scatter (comm.ExchangeFunc): the
	// closures are bound once at construction so hot rounds allocate
	// nothing; the *Out fields point them at the current round's
	// double-buffer generation.
	encodeReduce func(to int) []byte
	encodeBcast  func(to int) []byte
	reduceOut    [][]byte
	bcastOut     [][]byte
	bcastFull    bool

	destLo []graph.NodeID // per-host global master-range start
	destN  []uint64       // per-host master count
	// secBase[o][rt] = sectionLo(rt, threads, destN[o]), the wire key base of
	// host o's gather-thread-rt section. Precomputed because the combine
	// pass needs it per surviving entry and sectionLo costs a 64-bit
	// divide.
	secBase [][]uint64

	updated       atomic.Bool
	updatedGlobal bool

	trackReads bool
	readMaster atomic.Int64
	readRemote atomic.Int64
}

func newFullMap[V comparable](opts Options[V]) *fullMap[V] {
	h := opts.Host
	lo, hi := h.HP.MasterRangeGlobal()
	m := &fullMap[V]{
		h:           h,
		hp:          h.HP,
		op:          opts.Op,
		codec:       opts.Codec,
		masterLo:    lo,
		masterHi:    hi,
		masters:     make([]V, hi-lo),
		masterDirty: runtime.NewBitset(int(hi - lo)),
		reqBits:     runtime.NewBitset(h.HP.NumGlobalNodes()),
		tl:          make([]*bucketedMap[V], h.Threads),
		combined:    make([]*localMap[V], h.Threads),
	}
	m.encodeReduce = m.reducePayload
	m.encodeBcast = m.bcastPayload
	m.trackReads = opts.TrackReads
	numGlobal := h.HP.NumGlobalNodes()
	for t := range m.tl {
		m.tl[t] = newBucketedMap[V](h.Threads, numGlobal)
		m.combined[t] = newLocalMap[V]()
	}
	numHosts := h.HP.NumHosts()
	m.cells = make([][][][]byte, h.Threads)
	m.cellN = make([][][]int, h.Threads)
	for t := range m.cells {
		m.cells[t] = make([][][]byte, numHosts)
		m.cellN[t] = make([][]int, numHosts)
		for o := range m.cells[t] {
			m.cells[t][o] = make([][]byte, h.Threads)
			m.cellN[t][o] = make([]int, h.Threads)
		}
	}
	for g := range m.sendBufs {
		m.sendBufs[g] = make([][]byte, numHosts)
		m.bcastBufs[g] = make([][]byte, numHosts)
	}
	m.recvIn = make([][]byte, numHosts)
	m.destLo = make([]graph.NodeID, numHosts)
	m.destN = make([]uint64, numHosts)
	m.secBase = make([][]uint64, numHosts)
	maxRange := uint64(0)
	for o := 0; o < numHosts; o++ {
		olo, ohi := h.HP.MasterRangeOf(o)
		m.destLo[o] = olo
		m.destN[o] = uint64(ohi - olo)
		m.secBase[o] = make([]uint64, h.Threads)
		for rt := range m.secBase[o] {
			m.secBase[o][rt] = sectionLo(rt, uint64(h.Threads), m.destN[o])
		}
		for rt := 0; rt < h.Threads; rt++ {
			end := m.destN[o]
			if rt+1 < h.Threads {
				end = m.secBase[o][rt+1]
			}
			if r := end - m.secBase[o][rt]; r > maxRange {
				maxRange = r
			}
		}
	}
	m.denseMask = make([]byte, (maxRange+7)/8)
	m.denseVals = make([]byte, maxRange*uint64(m.codec.Size()))
	return m
}

// SetFrontier attaches a frontier whose *next* set receives an activation
// for every local proxy whose value changes during ReduceSync (masters) or
// a broadcast (pinned mirrors). Activations index the host-local ID space:
// masters at [0, NumMasters), mirrors above. Pass nil to detach.
func (m *fullMap[V]) SetFrontier(f *runtime.Frontier) { m.frontier = f }

// Read implements Map.
func (m *fullMap[V]) Read(n graph.NodeID) V {
	if n >= m.masterLo && n < m.masterHi {
		if m.trackReads {
			m.readMaster.Add(1)
		}
		return m.masters[n-m.masterLo]
	}
	if m.pinned {
		if local, ok := m.hp.LocalID(n); ok && !m.hp.IsMaster(local) {
			if m.trackReads {
				m.readRemote.Add(1)
			}
			return m.mirrors[int(local)-m.hp.NumMasters]
		}
	}
	if m.cacheSlot != nil {
		if s := m.cacheSlot[n]; s != 0 {
			if m.trackReads {
				m.readRemote.Add(1)
			}
			return m.cacheVals[s-1]
		}
	}
	panic(fmt.Sprintf("npm: host %d read of unmaterialized node %d (missing Request?)",
		m.h.Rank, n))
}

// Reduce implements Map: the CF compute-phase reduce into the calling
// thread's private map (Figure 7 left side).
//
//kimbap:conflictfree
func (m *fullMap[V]) Reduce(tid int, n graph.NodeID, v V) {
	m.tl[tid].Reduce(n, v, m.op.Combine)
}

// Set implements Map.
func (m *fullMap[V]) Set(n graph.NodeID, v V) {
	if n >= m.masterLo && n < m.masterHi {
		m.masters[n-m.masterLo] = v
		return
	}
	if m.pinned {
		if local, ok := m.hp.LocalID(n); ok && !m.hp.IsMaster(local) {
			m.mirrors[int(local)-m.hp.NumMasters] = v
		}
	}
}

// InitSync implements Map. GAR sets master values in place, so there is
// nothing to publish — but masters may now differ from any pinned mirrors,
// so a pull round needs a broadcast first. Remote values requested before
// the Sets are stale, so the request cache is dropped as in ReduceSync:
// a map reset with Set+InitSync never serves a previous round's values.
func (m *fullMap[V]) InitSync() {
	m.mirrorsFresh = false
	m.dropCache()
}

// Request implements Map.
func (m *fullMap[V]) Request(n graph.NodeID) {
	if n >= m.masterLo && n < m.masterHi {
		return // master: always materialized
	}
	if m.pinned {
		if local, ok := m.hp.LocalID(n); ok && !m.hp.IsMaster(local) {
			return // pinned mirror: kept fresh by broadcasts
		}
	}
	m.reqBits.Set(int(n))
}

// RequestSync implements Map (§4.1 request-sync phase).
func (m *fullMap[V]) RequestSync() {
	m.h.TimeRequest(func() {
		numHosts := m.hp.NumHosts()
		self := m.h.Rank

		// Drain the request bitset into per-owner ID lists. ForEachSet
		// ascends and owner ranges ascend, so each list is sorted and the
		// host-order concatenation of all lists is globally sorted.
		reqIDs := make([][]graph.NodeID, numHosts)
		m.reqBits.ForEachSet(func(i int) {
			o := m.hp.Owner(graph.NodeID(i))
			reqIDs[o] = append(reqIDs[o], graph.NodeID(i))
		})
		m.reqBits.Clear()

		// One request message per peer: the delta-varint ID list — the lists
		// are sorted, so deltas are small.
		out := make([][]byte, numHosts)
		for o, ids := range reqIDs {
			if o == self || len(ids) == 0 {
				continue
			}
			out[o] = appendIDList(make([]byte, 0, 4*len(ids)), ids)
		}
		in := comm.Exchange(m.h.EP, comm.TagRequest, out)

		// Serve incoming requests positionally: the response carries only
		// values, in the requester's ID order.
		resp := make([][]byte, numHosts)
		for o := 0; o < numHosts; o++ {
			if o == self {
				continue
			}
			buf := make([]byte, 0, len(in[o])/4*m.codec.Size())
			dec := idListDecoder{b: in[o]}
			for id, ok := dec.next(); ok; id, ok = dec.next() {
				buf = m.codec.Append(buf, m.masters[id-m.masterLo])
			}
			resp[o] = buf
		}
		got := comm.Exchange(m.h.EP, comm.TagResponse, resp)

		// Materialize the remote cache: keys are our concatenated request
		// lists (sorted by construction), values decode positionally.
		total := 0
		for o, ids := range reqIDs {
			if o != self {
				total += len(ids)
			}
		}
		newKeys := make([]graph.NodeID, 0, total)
		newVals := make([]V, 0, total)
		for o := 0; o < numHosts; o++ {
			if o == self {
				continue
			}
			payload := got[o]
			for _, id := range reqIDs[o] {
				var v V
				v, payload = m.codec.Read(payload)
				newKeys = append(newKeys, id)
				newVals = append(newVals, v)
			}
		}
		// Successive RequestSyncs within one round accumulate: merge the
		// fresh entries with any already-cached ones (both sorted). Fresh
		// values win on overlap. The cache is dropped at ReduceSync.
		m.mergeCache(newKeys, newVals)
	})
}

// mergeCache merges sorted (keys, vals) into the sorted remote cache,
// preferring the new values on duplicate keys, then refreshes the dense
// slot table. The merged key set is a superset of the old one, so
// rewriting every merged key's slot also overwrites all stale slots.
func (m *fullMap[V]) mergeCache(keys []graph.NodeID, vals []V) {
	defer m.rebuildCacheSlots()
	if len(m.cacheKeys) == 0 {
		m.cacheKeys, m.cacheVals = keys, vals
		return
	}
	if len(keys) == 0 {
		return
	}
	mk := make([]graph.NodeID, 0, len(m.cacheKeys)+len(keys))
	mv := make([]V, 0, len(m.cacheVals)+len(vals))
	i, j := 0, 0
	for i < len(m.cacheKeys) && j < len(keys) {
		switch {
		case m.cacheKeys[i] < keys[j]:
			mk = append(mk, m.cacheKeys[i])
			mv = append(mv, m.cacheVals[i])
			i++
		case m.cacheKeys[i] > keys[j]:
			mk = append(mk, keys[j])
			mv = append(mv, vals[j])
			j++
		default:
			mk = append(mk, keys[j])
			mv = append(mv, vals[j])
			i++
			j++
		}
	}
	mk = append(mk, m.cacheKeys[i:]...)
	mv = append(mv, m.cacheVals[i:]...)
	mk = append(mk, keys[j:]...)
	mv = append(mv, vals[j:]...)
	m.cacheKeys, m.cacheVals = mk, mv
}

// rebuildCacheSlots points the dense slot table at the current cache
// arrays. Runs once per RequestSync, after which every Read and async
// Load is a single index — the sort.Search this table replaced was on
// the per-access hot path.
func (m *fullMap[V]) rebuildCacheSlots() {
	if len(m.cacheKeys) == 0 {
		return
	}
	if m.cacheSlot == nil {
		m.cacheSlot = make([]int32, m.hp.NumGlobalNodes())
	}
	for i, k := range m.cacheKeys {
		m.cacheSlot[k] = int32(i) + 1
	}
}

// ReduceSync implements Map (§4.1 reduce-sync phase with the Figure 7
// conflict-free combine): disjoint key ranges make the combine, apply,
// and gather-reduce passes lock free end to end, and range bucketing makes
// them work-linear — no pass visits an entry or payload byte more than
// once.
//
//kimbap:conflictfree
func (m *fullMap[V]) ReduceSync() {
	m.h.TimeComm(func() {
		numHosts := m.hp.NumHosts()
		self := m.h.Rank
		threads := m.h.Threads

		// Combine pass: thread t owns global key range [t*N/T, (t+1)*N/T),
		// which is exactly bucket t of every thread-local map — it drains
		// those buckets without scanning or filtering the rest. Ranges are
		// disjoint, so no two threads touch the same key: conflict free by
		// construction. Entries owned by this host are applied to the
		// master vector directly (also conflict free, since a master key
		// lives in exactly one range). Surviving entries are encoded once,
		// into the cell addressed by (owner host, owner's gather-thread
		// range), so receivers can hand each section to exactly one gather
		// thread.
		m.h.ParFor(threads, func(_, t int) {
			out := m.combined[t]
			out.Reset()
			for _, src := range m.tl {
				src.buckets[t].ForEach(func(k graph.NodeID, v V) {
					out.Reduce(k, v, m.op.Combine)
				})
			}
			cells := m.cells[t]
			counts := m.cellN[t]
			for o := range cells {
				for rt := range cells[o] {
					cells[o][rt] = cells[o][rt][:0]
					counts[o][rt] = 0
				}
			}
			// Async drains CAS pinned mirrors in place instead of
			// buffering reduces; flush those values to their owners here,
			// folded into this thread's combine output so they ride the
			// normal cells path. Each dirty mirror belongs to exactly one
			// thread's key range, so the pass stays conflict free.
			if m.mirrorDirty != nil {
				numGlobal := uint64(m.hp.NumGlobalNodes())
				m.mirrorDirty.ForEachSet(func(slot int) {
					k := m.hp.GlobalID(graph.NodeID(slot + m.hp.NumMasters))
					if rangeBucket(k, uint64(threads), numGlobal) != t {
						return
					}
					out.Reduce(k, m.mirrors[slot], m.op.Combine)
				})
			}
			destLo, destN, secBase := m.destLo, m.destN, m.secBase
			out.ForEach(func(k graph.NodeID, v V) {
				o := m.hp.Owner(k)
				if o == self {
					m.applyToMaster(k, v)
					return
				}
				rel := uint64(k - destLo[o])
				rt := rangeBucket(graph.NodeID(rel), uint64(threads), destN[o])
				// Key relative to the section's range base — one byte for
				// typical per-host master ranges.
				buf := comm.AppendUvarint(cells[o][rt], rel-secBase[o][rt])
				cells[o][rt] = m.codec.Append(buf, v)
				counts[o][rt]++
			})
		})
		for _, t := range m.tl {
			t.Reset()
		}
		if m.mirrorDirty != nil {
			m.mirrorDirty.Clear()
		}

		// Scatter: one message per host pair, with compute/comm overlap —
		// ExchangeFunc assembles destination o's payload and hands it to
		// Send before destination o+1's encode starts, so each frame is in
		// flight while the next is still being built. The payload framing
		// (present bitmap, section lengths, sections in the receiver's
		// gather-thread order) lives in reducePayload; send buffers are
		// double-buffered per the comm buffer-ownership contract.
		m.reduceOut = m.sendBufs[m.sendGen]
		m.sendGen ^= 1
		in := comm.ExchangeFunc(m.h.EP, comm.TagReduce, m.encodeReduce, m.recvIn)

		// Gather-reduce: gather thread t decodes exactly the sections the
		// senders addressed to its master range — each received byte is
		// decoded once, by one thread, with no range filtering.
		m.h.ParFor(threads, func(_, t int) {
			base := m.masterLo + graph.NodeID(
				sectionLo(t, uint64(threads), uint64(m.masterHi-m.masterLo)))
			for o := 0; o < numHosts; o++ {
				if o == self || len(in[o]) == 0 {
					continue
				}
				decodeSection(reduceSection(in[o], t, threads), m.codec, base, m.applyToMaster)
			}
		})

		// Cached remote properties are now stale (§4.1): drop them.
		m.dropCache()

		// Masters just moved; pinned mirrors no longer reflect them until
		// the next broadcast, so pull rounds are off the table (pull.go).
		m.mirrorsFresh = false
	})
}

// dropCache empties the remote request cache. The slot table is cleared
// key by key — O(cache entries), and the allocation survives for the next
// round's rebuild.
func (m *fullMap[V]) dropCache() {
	if m.cacheSlot != nil {
		for _, k := range m.cacheKeys {
			m.cacheSlot[k] = 0
		}
	}
	m.cacheKeys = nil
	m.cacheVals = nil
}

// reducePayload assembles the reduce payload for destination o from the
// combine threads' cells, in the frame wire.go describes: a present bitmap
// skips empty sections, and each present section — the concatenation of
// the combine threads' cells for that receiving gather thread — picks the
// smaller of the sparse and dense body forms. A round with nothing for o
// returns an empty payload. Called by ExchangeFunc once per destination,
// immediately before that destination's Send.
func (m *fullMap[V]) reducePayload(o int) []byte {
	threads := m.h.Threads
	out := m.reduceOut
	buf := out[o][:0]
	total := 0
	for rt := 0; rt < threads; rt++ {
		for t := 0; t < threads; t++ {
			total += len(m.cells[t][o][rt])
		}
	}
	if total == 0 {
		out[o] = buf
		return buf
	}

	// Header first. Both the body length and the sparse/dense choice are
	// recomputed identically in the body loop; both are deterministic
	// functions of the (order-independent) per-section entry count and
	// byte size, so payload sizes are stable across runs.
	vs := m.codec.Size()
	buf = appendReduceHeader(buf, threads, func(rt int) int {
		n, secBytes := m.sectionSize(o, rt)
		if n == 0 {
			return 0
		}
		sparseLen, denseLen, _ := m.sectionForms(o, rt, n, secBytes, vs)
		return 1 + min(sparseLen, denseLen)
	})
	for rt := 0; rt < threads; rt++ {
		n, secBytes := m.sectionSize(o, rt)
		if n == 0 {
			continue
		}
		sparseLen, denseLen, mb := m.sectionForms(o, rt, n, secBytes, vs)
		if sparseLen <= denseLen {
			buf = append(buf, sectionSparse)
			buf = comm.AppendUvarint(buf, uint64(n))
			for t := 0; t < threads; t++ {
				buf = append(buf, m.cells[t][o][rt]...)
			}
			continue
		}
		// Dense: scatter the unsorted cells into value slots indexed by
		// base-relative key, then emit the bitmap and the occupied slots in
		// ascending key order.
		buf = append(buf, sectionDense)
		buf = comm.AppendUvarint(buf, uint64(mb))
		mask := m.denseMask[:mb]
		for i := range mask {
			mask[i] = 0
		}
		for t := 0; t < threads; t++ {
			sec := m.cells[t][o][rt]
			for len(sec) > 0 {
				var d uint64
				d, sec = comm.ReadUvarint(sec)
				copy(m.denseVals[int(d)*vs:], sec[:vs])
				sec = sec[vs:]
				mask[d/8] |= 1 << (uint(d) % 8)
			}
		}
		buf = append(buf, mask...)
		for bi, mbyte := range mask {
			for mbyte != 0 {
				d := bi*8 + bits.TrailingZeros8(mbyte)
				mbyte &= mbyte - 1
				buf = append(buf, m.denseVals[d*vs:(d+1)*vs]...)
			}
		}
	}
	out[o] = buf
	return buf
}

// sectionSize returns the entry count and total cell bytes the combine
// threads produced for section (o, rt).
func (m *fullMap[V]) sectionSize(o, rt int) (n, secBytes int) {
	for t := 0; t < m.h.Threads; t++ {
		n += m.cellN[t][o][rt]
		secBytes += len(m.cells[t][o][rt])
	}
	return n, secBytes
}

// sectionForms returns the encoded body sizes (excluding the form byte) of
// the sparse and dense forms for section (o, rt), plus the dense bitmap
// length. n is the entry count, secBytes the total cell bytes (uvarint keys
// + values), vs the value width.
func (m *fullMap[V]) sectionForms(o, rt, n, secBytes, vs int) (sparseLen, denseLen, mb int) {
	end := m.destN[o]
	if rt+1 < m.h.Threads {
		end = m.secBase[o][rt+1]
	}
	mb = int(end-m.secBase[o][rt]+7) / 8
	sparseLen = comm.UvarintLen(uint64(n)) + secBytes
	denseLen = comm.UvarintLen(uint64(mb)) + mb + n*vs
	return sparseLen, denseLen, mb
}

// applyToMaster merges v into the canonical master value, tracking change
// for IsUpdated and the broadcast dirty set. Only ever called from the
// thread owning k's key range, so the read-modify-write is race free.
//
//kimbap:conflictfree
func (m *fullMap[V]) applyToMaster(k graph.NodeID, v V) {
	i := k - m.masterLo
	old := m.masters[i]
	nv := m.op.Combine(old, v)
	if nv != old {
		m.masters[i] = nv
		m.updated.Store(true)
		m.masterDirty.Set(int(i))
		if m.frontier != nil {
			// Master local IDs coincide with master-range offsets, so i is
			// the frontier index. Only effective reduces activate: an input
			// that cannot change the value cannot seed further change.
			m.frontier.Activate(int(i))
		}
	}
}

// BroadcastSync implements Map: positional dirty-bitmask broadcast of
// changed master values to pinned mirrors.
func (m *fullMap[V]) BroadcastSync() {
	if !m.pinned {
		panic("npm: BroadcastSync without PinMirrors")
	}
	m.broadcast(false)
}

func (m *fullMap[V]) broadcast(full bool) {
	m.h.TimeBroadcast(func() {
		numHosts := m.hp.NumHosts()
		self := m.h.Rank

		// Overlapped scatter, like ReduceSync: destination o's payload goes
		// on the wire while o+1's is still being assembled. Every
		// destination's encode consults the dirty set, so it is cleared
		// only after the exchange. Buffers are double-buffered per the comm
		// buffer-ownership contract.
		m.bcastOut = m.bcastBufs[m.bcastGen]
		m.bcastGen ^= 1
		m.bcastFull = full
		in := comm.ExchangeFunc(m.h.EP, comm.TagBroadcast, m.encodeBcast, m.recvIn)
		m.masterDirty.Clear()

		for o := 0; o < numHosts; o++ {
			if o == self || len(in[o]) == 0 {
				continue
			}
			list := m.hp.MirrorsByOwner[o]
			payload := in[o]
			form := payload[0]
			payload = payload[1:]
			if form == sectionSparse {
				var n uint64
				n, payload = comm.ReadUvarint(payload)
				idx := uint64(0)
				for j := uint64(0); j < n; j++ {
					var d uint64
					d, payload = comm.ReadUvarint(payload)
					idx += d
					var v V
					v, payload = m.codec.Read(payload)
					m.setMirror(list[idx], v)
				}
				continue
			}
			maskLen := (len(list) + 7) / 8
			mask := payload[:maskLen]
			payload = payload[maskLen:]
			for i, local := range list {
				if mask[i/8]&(1<<(uint(i)%8)) != 0 {
					var v V
					v, payload = m.codec.Read(payload)
					m.setMirror(local, v)
				}
			}
		}

		// Every host just pushed its dirty masters to all mirror holders:
		// mirrors now reflect masters, the precondition pull rounds check.
		m.mirrorsFresh = true
	})
}

// setMirror stores a broadcast value into a pinned mirror slot, activating
// the mirror's frontier bit when the value actually changed. Mirrors by
// construction belong to disjoint owner lists, so decode loops never race.
func (m *fullMap[V]) setMirror(local graph.NodeID, v V) {
	slot := &m.mirrors[int(local)-m.hp.NumMasters]
	if *slot != v {
		*slot = v
		if m.frontier != nil {
			m.frontier.Activate(int(local))
		}
	}
}

// bcastPayload assembles the broadcast payload for destination o: a form
// byte, then either the dense positional form (a dirty bitmask over
// MasterSendTo[o] followed by the changed values in list order) or, when it
// encodes smaller, the sparse form (uvarint count, then delta-varint list
// indices each followed by its value). A round with nothing dirty for o
// returns an empty payload. Called by ExchangeFunc once per destination.
func (m *fullMap[V]) bcastPayload(o int) []byte {
	list := m.hp.MasterSendTo[o]
	maskLen := (len(list) + 7) / 8
	out := m.bcastOut
	buf := out[o][:0]
	// First pass: count dirty entries and size the sparse index stream.
	n, idxBytes, prev := 0, 0, 0
	if m.bcastFull {
		n = len(list)
	} else {
		for i, local := range list {
			if m.masterDirty.Test(int(local)) {
				idxBytes += comm.UvarintLen(uint64(i - prev))
				prev = i
				n++
			}
		}
	}
	if n == 0 {
		out[o] = buf
		return buf
	}
	if !m.bcastFull && comm.UvarintLen(uint64(n))+idxBytes < maskLen {
		buf = append(buf, sectionSparse)
		buf = comm.AppendUvarint(buf, uint64(n))
		prev = 0
		for i, local := range list {
			if m.masterDirty.Test(int(local)) {
				buf = comm.AppendUvarint(buf, uint64(i-prev))
				prev = i
				buf = m.codec.Append(buf, m.masters[local])
			}
		}
		out[o] = buf
		return buf
	}
	buf = append(buf, sectionDense)
	for i := 0; i < maskLen; i++ {
		buf = append(buf, 0)
	}
	for i, local := range list {
		if m.bcastFull || m.masterDirty.Test(int(local)) {
			buf[1+i/8] |= 1 << (uint(i) % 8)
			buf = m.codec.Append(buf, m.masters[local])
		}
	}
	out[o] = buf
	return buf
}

// PinMirrors implements Map: materialize mirrors and fill them with a full
// broadcast. The mirror array is kept across unpin/pin cycles: besides
// saving the allocation, the stale values are exactly the mirrors' state at
// the last unpin, so the refresh broadcast's change detection (setMirror)
// activates the frontier only for mirrors whose master actually changed in
// between — the signal phase-seeded frontiers (ccHook) rely on.
func (m *fullMap[V]) PinMirrors() {
	if m.pinned {
		return
	}
	if m.mirrors == nil {
		m.mirrors = make([]V, m.hp.NumMirrors())
	}
	m.masterDirty.Clear()
	m.pinned = true
	m.broadcast(true)
}

// UnpinMirrors implements Map. Reads of non-masters while unpinned go
// through the request cache (m.pinned guards every mirror access), so the
// retained array can never serve stale values.
func (m *fullMap[V]) UnpinMirrors() {
	m.pinned = false
}

// ResetUpdated implements Map.
func (m *fullMap[V]) ResetUpdated() { m.updated.Store(false) }

// IsUpdated implements Map (collective OR across hosts).
func (m *fullMap[V]) IsUpdated() bool {
	m.h.TimeComm(func() {
		m.updatedGlobal = comm.AllReduceBool(m.h.EP, m.updated.Load())
	})
	return m.updatedGlobal
}

// ReadStats implements Map.
func (m *fullMap[V]) ReadStats() (master, remote int64) {
	return m.readMaster.Load(), m.readRemote.Load()
}
