package npm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// hashMap implements the SGR+CF and SGR-only ablation variants (§6.4).
// Unlike the Full map, it has no graph-partition-aware representation:
// canonical values are distributed across hosts by modulo-hashing the node
// ID and stored in a generic sharded hash map, so even a node's "own"
// property usually lives on another host and must travel the request path.
//
// With shared=false (SGR+CF) reductions use the conflict-free thread-local
// maps; with shared=true (SGR-only) every thread reduces into one shared
// locked map, exposing the thread conflicts CF eliminates.
type hashMap[V comparable] struct {
	h      *runtime.Host
	hp     *partition.HostPartition
	op     ReduceOp[V]
	codec  Codec[V]
	shared bool

	owned *shardedMap[V] // canonical values for hash-owned nodes

	reqBits *runtime.Bitset
	cache   *localMap[V] // written only in collectives, read-only in compute

	pinned    bool
	pinnedIDs []graph.NodeID // partition-mirror global IDs, sorted

	tl            []*bucketedMap[V] // SGR+CF reduce maps, bucketed by combine range
	combined      []*localMap[V]
	sharedPartial *shardedMap[V] // SGR-only reduce map

	// Persistent sync-phase buffers, reused across BSP rounds (see the
	// comm package's buffer-ownership contract). Reduce payloads use the
	// Full map's frame (wire.go) with sections in global key-range order,
	// so each receiving gather thread decodes exactly one section per
	// payload.
	cells       [][][]byte // CF: [tid][dest] section bytes (section = tid's range)
	cellN       [][]int    // CF: [tid][dest] section entry counts
	sharedCells [][][]byte // SGR-only: [dest][range] section bytes
	sharedCellN [][]int    // SGR-only: [dest][range] section entry counts
	sendBufs    [2][][]byte
	sendGen     int
	reqBufs     [2][][]byte // fetch request payloads
	respBufs    [2][][]byte // fetch response payloads
	fetchGen    int
	recvIn      [][]byte         // receive slice for the exchanges
	byOwner     [][]graph.NodeID // fetch scratch: requested IDs per owner
	// secBase[rt] = sectionLo(rt, threads, numGlobal), the wire key base of
	// global range bucket rt. Precomputed because the encode passes need it
	// per surviving entry and sectionLo costs a 64-bit divide.
	secBase []uint64

	// Encode state for the overlapped scatter (comm.ExchangeFunc), bound
	// once at construction so hot rounds allocate nothing; the *Out fields
	// select the current double-buffer generation.
	encodeReduce   func(to int) []byte
	encodeFetchReq func(to int) []byte
	reduceOut      [][]byte
	fetchReqOut    [][]byte

	pendingMu   sync.Mutex
	pendingSets []setEntry[V]

	updated       atomic.Bool
	updatedGlobal bool

	trackReads bool
	readMaster atomic.Int64
	readRemote atomic.Int64
}

type setEntry[V any] struct {
	id graph.NodeID
	v  V
}

func newHashMapVariant[V comparable](opts Options[V], shared bool, partialShards int) *hashMap[V] {
	h := opts.Host
	m := &hashMap[V]{
		h:       h,
		hp:      h.HP,
		op:      opts.Op,
		codec:   opts.Codec,
		shared:  shared,
		owned:   newShardedMap[V](),
		reqBits: runtime.NewBitset(h.HP.NumGlobalNodes()),
		cache:   newLocalMap[V](),
	}
	m.encodeReduce = m.reducePayload
	m.encodeFetchReq = m.fetchReqPayload
	m.trackReads = opts.TrackReads
	numHosts := h.HP.NumHosts()
	numGlobal := h.HP.NumGlobalNodes()
	m.secBase = make([]uint64, h.Threads)
	for rt := range m.secBase {
		m.secBase[rt] = sectionLo(rt, uint64(h.Threads), uint64(numGlobal))
	}
	if shared {
		m.sharedPartial = newShardedMapN[V](partialShards)
		m.sharedCells = make([][][]byte, numHosts)
		m.sharedCellN = make([][]int, numHosts)
		for o := range m.sharedCells {
			m.sharedCells[o] = make([][]byte, h.Threads)
			m.sharedCellN[o] = make([]int, h.Threads)
		}
	} else {
		m.tl = make([]*bucketedMap[V], h.Threads)
		m.combined = make([]*localMap[V], h.Threads)
		for t := range m.tl {
			m.tl[t] = newBucketedMap[V](h.Threads, numGlobal)
			m.combined[t] = newLocalMap[V]()
		}
		m.cells = make([][][]byte, h.Threads)
		m.cellN = make([][]int, h.Threads)
		for t := range m.cells {
			m.cells[t] = make([][]byte, numHosts)
			m.cellN[t] = make([]int, numHosts)
		}
	}
	for g := range m.sendBufs {
		m.sendBufs[g] = make([][]byte, numHosts)
		m.reqBufs[g] = make([][]byte, numHosts)
		m.respBufs[g] = make([][]byte, numHosts)
	}
	m.recvIn = make([][]byte, numHosts)
	m.byOwner = make([][]graph.NodeID, numHosts)
	return m
}

// hashOwner distributes node IDs across hosts with no partition awareness.
func (m *hashMap[V]) hashOwner(n graph.NodeID) int {
	return int(n) % m.hp.NumHosts()
}

func (m *hashMap[V]) isPartitionMaster(n graph.NodeID) bool {
	lo, hi := m.hp.MasterRangeGlobal()
	return n >= lo && n < hi
}

// Read implements Map. Served from the hash-owned map (if owned here) or
// the request-filled cache.
func (m *hashMap[V]) Read(n graph.NodeID) V {
	if m.trackReads {
		if m.isPartitionMaster(n) {
			m.readMaster.Add(1)
		} else {
			m.readRemote.Add(1)
		}
	}
	if m.hashOwner(n) == m.h.Rank {
		if v, ok := m.owned.Get(n); ok {
			return v
		}
		panic(fmt.Sprintf("npm: host %d read of uninitialized owned node %d", m.h.Rank, n))
	}
	if v, ok := m.cache.Get(n); ok {
		return v
	}
	panic(fmt.Sprintf("npm: host %d read of uncached node %d (missing Request?)", m.h.Rank, n))
}

// Reduce implements Map.
func (m *hashMap[V]) Reduce(tid int, n graph.NodeID, v V) {
	if m.shared {
		// SGR-only: every thread contends on the shared map's locks —
		// the conflict cost the CF optimization removes.
		m.sharedPartial.Reduce(n, v, m.op.Combine)
		return
	}
	m.reduceCF(tid, n, v)
}

// reduceCF is the SGR+CF compute-phase reduce into the calling thread's
// private map (§4.2).
//
//kimbap:conflictfree
func (m *hashMap[V]) reduceCF(tid int, n graph.NodeID, v V) {
	m.tl[tid].Reduce(n, v, m.op.Combine)
}

// Set implements Map. Values for nodes hash-owned elsewhere are buffered
// and flushed by InitSync.
func (m *hashMap[V]) Set(n graph.NodeID, v V) {
	if m.hashOwner(n) == m.h.Rank {
		m.owned.Set(n, v)
		return
	}
	m.pendingMu.Lock()
	m.pendingSets = append(m.pendingSets, setEntry[V]{n, v})
	m.pendingMu.Unlock()
}

// InitSync implements Map: flush buffered Sets to their hash owners.
// Cached values predate the Sets, so the cache is dropped as in ReduceSync
// and pinned mirrors are re-fetched: a map reset with Set+InitSync never
// serves a previous round's values.
func (m *hashMap[V]) InitSync() {
	m.h.TimeComm(func() {
		numHosts := m.hp.NumHosts()
		self := m.h.Rank
		out := make([][]byte, numHosts)
		m.pendingMu.Lock()
		for _, e := range m.pendingSets {
			o := m.hashOwner(e.id)
			out[o] = comm.AppendUint32(out[o], uint32(e.id))
			out[o] = m.codec.Append(out[o], e.v)
		}
		m.pendingSets = nil
		m.pendingMu.Unlock()
		in := comm.Exchange(m.h.EP, comm.TagReduce, out)
		entrySize := 4 + m.codec.Size()
		for o, payload := range in {
			if o == self {
				continue
			}
			for len(payload) >= entrySize {
				var id uint32
				id, payload = comm.ReadUint32(payload)
				var v V
				v, payload = m.codec.Read(payload)
				m.owned.Set(graph.NodeID(id), v)
			}
		}
		m.cache.Reset()
	})
	if m.pinned {
		m.h.TimeBroadcast(func() { m.fetch(m.pinnedIDs) })
	}
}

// Request implements Map: needed for anything not hash-owned locally,
// including this partition's own master nodes (no GAR).
func (m *hashMap[V]) Request(n graph.NodeID) {
	if m.hashOwner(n) == m.h.Rank {
		return
	}
	if m.pinned {
		if _, ok := m.cache.Get(n); ok {
			return // pinned entries are refreshed by BroadcastSync
		}
	}
	m.reqBits.Set(int(n))
}

// RequestSync implements Map.
func (m *hashMap[V]) RequestSync() {
	m.h.TimeRequest(func() {
		var ids []graph.NodeID
		m.reqBits.ForEachSet(func(i int) { ids = append(ids, graph.NodeID(i)) })
		m.reqBits.Clear()
		m.fetch(ids)
	})
}

// fetch retrieves the given global IDs from their hash owners and stores
// them in the cache. Collective. Request and response buffers are
// persistent and double-buffered, so the repeated fetches PM programs
// issue (BroadcastSync re-fetches the pinned set every round) allocate
// nothing in steady state.
func (m *hashMap[V]) fetch(ids []graph.NodeID) {
	numHosts := m.hp.NumHosts()
	self := m.h.Rank
	byOwner := m.byOwner
	for o := range byOwner {
		byOwner[o] = byOwner[o][:0]
	}
	for _, id := range ids {
		byOwner[m.hashOwner(id)] = append(byOwner[m.hashOwner(id)], id)
	}
	gen := m.fetchGen
	m.fetchGen ^= 1
	// Overlapped request scatter: destination o's delta-varint ID list goes
	// on the wire while o+1's is still being encoded.
	m.fetchReqOut = m.reqBufs[gen]
	in := comm.ExchangeFunc(m.h.EP, comm.TagRequest, m.encodeFetchReq, m.recvIn)

	resp := m.respBufs[gen]
	for o := 0; o < numHosts; o++ {
		if o == self {
			continue
		}
		buf := resp[o][:0]
		dec := idListDecoder{b: in[o]}
		for id, ok := dec.next(); ok; id, ok = dec.next() {
			v, ok := m.owned.Get(id)
			if !ok {
				panic(fmt.Sprintf("npm: host %d asked for uninitialized node %d", self, id))
			}
			buf = m.codec.Append(buf, v)
		}
		resp[o] = buf
	}
	// The request payloads in `in` are fully consumed above, so reusing
	// the receive slice for the response exchange is safe.
	got := comm.ExchangeInto(m.h.EP, comm.TagResponse, resp, m.recvIn)

	// Requests within a round accumulate; the cache is invalidated at
	// ReduceSync, the point where cached values become stale.
	for o := 0; o < numHosts; o++ {
		if o == self {
			continue
		}
		payload := got[o]
		for _, id := range byOwner[o] {
			var v V
			v, payload = m.codec.Read(payload)
			m.cache.Set(id, v)
		}
	}
	// Self-owned requests are resolved from the owned map on Read.
}

// ReduceSync implements Map. Payload sections are keyed by global
// key-range bucket, so receivers fan the decode out across gather threads
// with each byte decoded exactly once (the same framing Full uses).
func (m *hashMap[V]) ReduceSync() {
	m.h.TimeComm(func() {
		numHosts := m.hp.NumHosts()
		self := m.h.Rank
		threads := m.h.Threads
		numGlobal := uint64(m.hp.NumGlobalNodes())

		if m.shared {
			// SGR-only: drain the shared partial map single-threaded (its
			// combining happened, with contention, during compute),
			// sectioning remote entries by global key-range bucket.
			for o := range m.sharedCells {
				for rt := range m.sharedCells[o] {
					m.sharedCells[o][rt] = m.sharedCells[o][rt][:0]
					m.sharedCellN[o][rt] = 0
				}
			}
			secBase := m.secBase
			m.sharedPartial.ForEach(func(k graph.NodeID, v V) {
				o := m.hashOwner(k)
				if o == self {
					m.applyToOwned(k, v)
					return
				}
				rt := rangeBucket(k, uint64(threads), numGlobal)
				buf := comm.AppendUvarint(m.sharedCells[o][rt], uint64(k)-secBase[rt])
				m.sharedCells[o][rt] = m.codec.Append(buf, v)
				m.sharedCellN[o][rt]++
			})
			m.sharedPartial.Reset()
		} else {
			// SGR+CF: work-linear combine, exactly as in Full — combine
			// thread t drains bucket t of every thread-local map, so its
			// surviving entries are precisely global key-range bucket t and
			// form section t of every outgoing payload.
			m.h.ParFor(threads, func(_, t int) {
				cm := m.combined[t]
				cm.Reset()
				for _, src := range m.tl {
					src.buckets[t].ForEach(func(k graph.NodeID, v V) {
						cm.Reduce(k, v, m.op.Combine)
					})
				}
				cells, counts := m.cells[t], m.cellN[t]
				for o := range cells {
					cells[o] = cells[o][:0]
					counts[o] = 0
				}
				base := m.secBase[t]
				cm.ForEach(func(k graph.NodeID, v V) {
					o := m.hashOwner(k)
					if o == self {
						m.applyToOwned(k, v)
						return
					}
					// Thread t's surviving entries are exactly global range
					// bucket t: section t of every payload.
					buf := comm.AppendUvarint(cells[o], uint64(k)-base)
					cells[o] = m.codec.Append(buf, v)
					counts[o]++
				})
			})
			for _, t := range m.tl {
				t.Reset()
			}
		}

		// Scatter with compute/comm overlap: ExchangeFunc assembles and
		// sends each destination's payload (present bitmap, section
		// lengths, sections in key-range order — see reducePayload) before the next
		// destination's encode starts. Double-buffered.
		m.reduceOut = m.sendBufs[m.sendGen]
		m.sendGen ^= 1
		in := comm.ExchangeFunc(m.h.EP, comm.TagReduce, m.encodeReduce, m.recvIn)

		// Gather: thread t decodes section t of every payload — disjoint
		// key ranges, each byte decoded once. The owned map's shard locks
		// make the concurrent applies safe.
		m.h.ParFor(threads, func(_, t int) {
			base := graph.NodeID(sectionLo(t, uint64(threads), numGlobal))
			for o := 0; o < numHosts; o++ {
				if o == self || len(in[o]) == 0 {
					continue
				}
				decodeSection(reduceSection(in[o], t, threads), m.codec, base, m.applyToOwned)
			}
		})

		// All cached values (requested and pinned alike) are stale now;
		// the BroadcastSync that PM programs issue next re-fetches the
		// pinned set.
		m.cache.Reset()
	})
}

// section returns the encoded entries destined for host o's range bucket
// rt and their count.
func (m *hashMap[V]) section(o, rt int) ([]byte, int) {
	if m.shared {
		return m.sharedCells[o][rt], m.sharedCellN[o][rt]
	}
	return m.cells[rt][o], m.cellN[rt][o]
}

// reducePayload assembles the reduce payload for destination o in the Full
// map's frame (wire.go), sections in global key-range order. Every section
// uses the sparse body form: a dense body needs a scratch buffer the size
// of the section's key range, and a hash map's sections are slices of the
// whole global key space — hash ownership does not narrow them to a host's
// range the way Full's partition ownership does. Empty rounds return an
// empty payload. Called by ExchangeFunc once per destination, immediately
// before that destination's Send.
func (m *hashMap[V]) reducePayload(o int) []byte {
	threads := m.h.Threads
	out := m.reduceOut
	buf := out[o][:0]
	total := 0
	for rt := 0; rt < threads; rt++ {
		_, n := m.section(o, rt)
		total += n
	}
	if total == 0 {
		out[o] = buf
		return buf
	}
	buf = appendReduceHeader(buf, threads, func(rt int) int {
		sec, n := m.section(o, rt)
		if n == 0 {
			return 0
		}
		return 1 + comm.UvarintLen(uint64(n)) + len(sec)
	})
	for rt := 0; rt < threads; rt++ {
		sec, n := m.section(o, rt)
		if n == 0 {
			continue
		}
		buf = append(buf, sectionSparse)
		buf = comm.AppendUvarint(buf, uint64(n))
		buf = append(buf, sec...)
	}
	out[o] = buf
	return buf
}

// fetchReqPayload encodes the fetch request for host o: its byOwner ID
// list, delta-varint encoded (the lists are sorted). Called by
// ExchangeFunc once per destination.
func (m *hashMap[V]) fetchReqPayload(o int) []byte {
	out := m.fetchReqOut
	out[o] = appendIDList(out[o][:0], m.byOwner[o])
	return out[o]
}

func (m *hashMap[V]) applyToOwned(k graph.NodeID, v V) {
	if m.owned.ReduceChanged(k, v, m.op.Combine) {
		m.updated.Store(true)
	}
}

// PinMirrors implements Map: with hash distribution there is no broadcast
// structure to exploit, so pinning fetches this partition's mirror values
// through the request path and BroadcastSync re-fetches them — the two-way
// traffic the Full variant's one-way broadcast avoids.
func (m *hashMap[V]) PinMirrors() {
	if m.pinned {
		return
	}
	n := m.hp.NumLocal()
	m.pinnedIDs = make([]graph.NodeID, 0, n-m.hp.NumMasters)
	for l := m.hp.NumMasters; l < n; l++ {
		m.pinnedIDs = append(m.pinnedIDs, m.hp.GlobalID(graph.NodeID(l)))
	}
	sort.Slice(m.pinnedIDs, func(i, j int) bool { return m.pinnedIDs[i] < m.pinnedIDs[j] })
	m.h.TimeBroadcast(func() { m.fetch(m.pinnedIDs) })
	m.pinned = true
}

// BroadcastSync implements Map (emulated by re-fetching pinned values).
func (m *hashMap[V]) BroadcastSync() {
	if !m.pinned {
		panic("npm: BroadcastSync without PinMirrors")
	}
	m.h.TimeBroadcast(func() { m.fetch(m.pinnedIDs) })
}

// UnpinMirrors implements Map.
func (m *hashMap[V]) UnpinMirrors() {
	m.pinned = false
	m.pinnedIDs = nil
	m.cache.Reset()
}

// ResetUpdated implements Map.
func (m *hashMap[V]) ResetUpdated() { m.updated.Store(false) }

// IsUpdated implements Map.
func (m *hashMap[V]) IsUpdated() bool {
	m.h.TimeComm(func() {
		m.updatedGlobal = comm.AllReduceBool(m.h.EP, m.updated.Load())
	})
	return m.updatedGlobal
}

// ReadStats implements Map.
func (m *hashMap[V]) ReadStats() (master, remote int64) {
	return m.readMaster.Load(), m.readRemote.Load()
}

// shardedMap is a locked, sharded hash map standing in for the paper's
// phmap flat_hash_map: correct under concurrency but paying lock conflicts
// for hot keys, which is precisely what the CF ablation measures. With a
// single shard it models Vite's one shared map guarded as a whole.
type shardedMap[V comparable] struct {
	shards []mapShard[V]
	mask   uint32
}

type mapShard[V comparable] struct {
	mu sync.Mutex
	m  *localMap[V]
}

// newShardedMap creates a map with 16 shards.
func newShardedMap[V comparable]() *shardedMap[V] { return newShardedMapN[V](16) }

// newShardedMapN creates a map with n shards; n must be a power of two.
func newShardedMapN[V comparable](n int) *shardedMap[V] {
	if n&(n-1) != 0 || n == 0 {
		panic("npm: shard count must be a power of two")
	}
	s := &shardedMap[V]{shards: make([]mapShard[V], n), mask: uint32(n - 1)}
	for i := range s.shards {
		s.shards[i].m = newLocalMap[V]()
	}
	return s
}

func (s *shardedMap[V]) shardFor(k graph.NodeID) int {
	return int(((uint32(k) * 2654435769) >> 16) & s.mask)
}

// Get returns the value for k. Reads take the shard lock plainly: a
// conflict is a *reduction* that finds the lock held (conflicts.go), so
// contended reads and sync-phase traffic must not bump the counter — the
// conflict-free variants report zero by construction, and Get serves
// their request path.
func (s *shardedMap[V]) Get(k graph.NodeID) (V, bool) {
	sh := &s.shards[s.shardFor(k)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.m.Get(k)
}

// Set stores v for k. Not a reduction: plain lock, no conflict counting.
func (s *shardedMap[V]) Set(k graph.NodeID, v V) {
	sh := &s.shards[s.shardFor(k)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.m.Set(k, v)
}

// Reduce merges v into k's entry under the shard lock.
func (s *shardedMap[V]) Reduce(k graph.NodeID, v V, op func(a, b V) V) {
	sh := &s.shards[s.shardFor(k)]
	sh.lockCounting()
	defer sh.mu.Unlock()
	sh.m.Reduce(k, v, op)
}

// ReduceChanged merges v into k's entry and reports whether the stored
// value changed. V must be comparable at the call site. It is only
// called while applying combined partials during ReduceSync, after
// reduce-compute is over, so contention here is sync-phase cost, not a
// thread conflict: plain lock.
func (s *shardedMap[V]) ReduceChanged(k graph.NodeID, v V, op func(a, b V) V) bool {
	sh := &s.shards[s.shardFor(k)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, ok := sh.m.Get(k)
	if !ok {
		sh.m.Set(k, v)
		return true
	}
	nv := op(old, v)
	changed := nv != old
	if changed {
		sh.m.Set(k, nv)
	}
	return changed
}

// ForEach visits all entries; not safe concurrently with writers.
func (s *shardedMap[V]) ForEach(fn func(k graph.NodeID, v V)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.m.ForEach(fn)
		sh.mu.Unlock()
	}
}

// Reset clears all shards.
func (s *shardedMap[V]) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.m.Reset()
		sh.mu.Unlock()
	}
}
