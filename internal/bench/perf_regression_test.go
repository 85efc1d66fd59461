package bench

import (
	gort "runtime"
	"testing"
	"time"

	"kimbap/internal/algorithms"
	"kimbap/internal/comm"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// TestReduceSyncCommBytesNoRegression gates the wire codec's win: the
// compact reduce frame must move at most 70% of the bytes the retired
// fixed-width (v1) encoding would send on the identical workload. The v1
// figure comes from v1ReduceCommBytes, an exact size model of that encoding
// over the live partition's ownership, so it tracks the perf R-MAT instance
// instead of pinning a graph that may no longer exist. With Reps=1 each
// measured window covers a fixed iteration range and the encoding is
// order-independent, so the comparison is deterministic. The committed
// BENCH_kimbap.json value comes from `make bench` (Reps=3, best wall rep
// kept, and rep windows cover different iteration ranges), so the
// comparison against it allows 0.5% cross-window drift — far below any
// real codec regression.
func TestReduceSyncCommBytesNoRegression(t *testing.T) {
	committed := int64(-1)
	if f, err := readPerfFile("../../BENCH_kimbap.json"); err == nil {
		for _, r := range f.Records {
			if r.Name == "reduce_sync_full" && r.Hosts == 8 && r.Threads == 4 {
				committed = r.CommBytes
			}
		}
	}
	cfg := Config{Scale: Full, Threads: 4, Reps: 1}
	v1 := cfg.v1ReduceCommBytes(8)
	rec := cfg.syncPerf("reduce_sync_full", npm.Full, 8, false)
	if v1 == 0 {
		t.Fatal("v1 model sends no bytes; gate workload is broken")
	}
	t.Logf("comm_bytes = %d/op, v1 model = %d/op", rec.CommBytes, v1)
	if limit := v1 * 7 / 10; rec.CommBytes > limit {
		t.Errorf("comm_bytes = %d/op, above the 30%%-under-v1 ceiling %d (v1 = %d)",
			rec.CommBytes, limit, v1)
	}
	if committed < 0 {
		t.Log("no committed BENCH_kimbap.json record; only the v1 ceiling was checked")
	} else if slack := committed + committed/200; rec.CommBytes > slack {
		t.Errorf("comm_bytes = %d/op, regressed past the committed %d (+0.5%% = %d)",
			rec.CommBytes, committed, slack)
	}
}

// v1ReduceCommBytes returns the bytes/op the fixed-width (v1) encoding sends
// on syncPerf's reduce-only workload over the first measured window. Every
// host reduces the same distinct keys (j*31+i) mod |V|, j < 1024, in round
// i, and each non-empty host-to-peer payload is a 1-byte format tag, a
// uint32 length per receiving gather thread, and a (uint32 key, 4-byte
// value) pair per entry.
func (c Config) v1ReduceCommBytes(hosts int) int64 {
	g, iters := c.perfGraph()
	cluster, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: c.Threads})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	total := g.NumNodes()
	var bytes int64
	for i := syncPerfWarmup; i < syncPerfWarmup+iters; i++ {
		seen := make(map[int]bool)
		perOwner := make([]int64, hosts)
		for j := 0; j < 1024; j++ {
			k := (j*31 + i) % total
			if !seen[k] {
				seen[k] = true
				perOwner[cluster.Part.Owner(graph.NodeID(k))]++
			}
		}
		for h := 0; h < hosts; h++ {
			for o, n := range perOwner {
				if o != h && n > 0 {
					bytes += 1 + 4*int64(c.Threads) + n*(4+4)
				}
			}
		}
	}
	return bytes / int64(iters)
}

// TestIngestBuildPartitionGate holds the parallel ingestion pipeline to at
// most 60% of the retained serial references' wall time on the full-scale
// friendster preset: build (symmetrize + dedup + CSR) plus an 8-host CVC
// partition. Both sides are measured live in this process — wall-time
// baselines recorded on another machine would gate nothing — with two reps
// each, fastest kept. The margin is wide (the pipeline measures ~40% of
// serial on one core, and parallelism only widens it), so scheduler noise
// cannot trip the gate.
func TestIngestBuildPartitionGate(t *testing.T) {
	cfg := Config{Scale: Full, Threads: 4, Reps: 2}
	const p = gen.Friendster
	serial := cfg.ingestBuildPerf(p, true).WallNsPerOp +
		cfg.ingestPartitionPerf(p, 8, true).WallNsPerOp
	par := cfg.ingestBuildPerf(p, false).WallNsPerOp +
		cfg.ingestPartitionPerf(p, 8, false).WallNsPerOp
	if serial == 0 {
		t.Fatal("serial ingest measured zero wall time; gate workload is broken")
	}
	if limit := serial * 0.6; par > limit {
		t.Errorf("parallel build+partition = %.1fms, above 60%% of serial %.1fms (limit %.1fms)",
			par/1e6, serial/1e6, limit/1e6)
	}
}

// TestAdaptiveModeGate holds the adaptive policy engine to at most 110% of
// the best static execution mode on the single-host chain workload, all
// three measured live in this process. The workload is the async drain's
// best case (deep pointer-jumping), so static async beats static BSP by a
// wide margin; the adaptive controller probes async on its first round
// (every target is local at one host) and must essentially track it — the
// 10% margin absorbs the probe round and scheduler noise, with Reps
// best-of damping the rest.
func TestAdaptiveModeGate(t *testing.T) {
	cfg := Config{Scale: Full, Threads: 4, Reps: 3}
	bsp := cfg.ccModePerf("cc_sv_bsp", 1, algorithms.ExecBSP).WallNsPerOp
	async := cfg.ccModePerf("cc_sv_async", 1, algorithms.ExecAsync).WallNsPerOp
	adaptive := cfg.ccModePerf("cc_sv_adaptive", 1, algorithms.ExecAdaptive).WallNsPerOp
	if bsp == 0 || async == 0 {
		t.Fatal("static mode measured zero wall time; gate workload is broken")
	}
	bestStatic := bsp
	if async < bestStatic {
		bestStatic = async
	}
	t.Logf("chain CC-SV 1h: bsp=%.2fms async=%.2fms adaptive=%.2fms",
		bsp/1e6, async/1e6, adaptive/1e6)
	if limit := bestStatic * 1.10; adaptive > limit {
		t.Errorf("adaptive = %.2fms, above 110%% of best static %.2fms (limit %.2fms)",
			adaptive/1e6, bestStatic/1e6, limit/1e6)
	}
}

// TestDirectionGate holds the §15 direction optimization to a real win,
// all three directions measured live in this process on the full-scale
// perf R-MAT (dense rounds, 4 hosts x 4 threads, pull-complete IEC
// partition). Three claims: a static pull run must finish within 90% of
// the static push wall — the dense hook rounds drop the reduce collective
// and its thread-local delta maps entirely, which measures well under
// that on this workload; the globally-reduced adaptive rule must track
// the best static direction within 5% (on an all-dense workload it should
// simply lock onto pull after the first telemetry reduce); and every pull
// round's reduce-byte count must be exactly zero — the broadcast-only
// round end is a structural claim, not a statistical one.
func TestDirectionGate(t *testing.T) {
	cfg := Config{Scale: Full, Threads: 4, Reps: 3}
	push := cfg.ccDirPerf("cc_sv_push", 4, algorithms.DirPush)
	pull := cfg.ccDirPerf("cc_sv_pull", 4, algorithms.DirPull)
	adaptive := cfg.ccDirPerf("cc_sv_direction_adaptive", 4, algorithms.DirAdaptive)
	if push.WallNsPerOp == 0 || pull.WallNsPerOp == 0 {
		t.Fatal("static direction measured zero wall time; gate workload is broken")
	}
	pullRounds := 0
	for i, d := range pull.RoundDir {
		if d != "pull" {
			continue
		}
		pullRounds++
		if b := pull.RoundReduceBytes[i]; b != 0 {
			t.Errorf("pull round %d sent %d reduce bytes; pull rounds are broadcast-only", i, b)
		}
	}
	if pullRounds == 0 {
		t.Fatalf("static pull run recorded no pull rounds (dirs %v); gate workload is broken",
			pull.RoundDir)
	}
	t.Logf("dense CC-SV 4h/4t IEC: push=%.2fms pull=%.2fms adaptive=%.2fms (%d pull rounds)",
		push.WallNsPerOp/1e6, pull.WallNsPerOp/1e6, adaptive.WallNsPerOp/1e6, pullRounds)
	if limit := push.WallNsPerOp * 0.9; pull.WallNsPerOp > limit {
		t.Errorf("pull = %.2fms, above 90%% of the push wall %.2fms (limit %.2fms)",
			pull.WallNsPerOp/1e6, push.WallNsPerOp/1e6, limit/1e6)
	}
	bestStatic := push.WallNsPerOp
	if pull.WallNsPerOp < bestStatic {
		bestStatic = pull.WallNsPerOp
	}
	if limit := bestStatic * 1.05; adaptive.WallNsPerOp > limit {
		t.Errorf("adaptive = %.2fms, above 105%% of best static %.2fms (limit %.2fms)",
			adaptive.WallNsPerOp/1e6, bestStatic/1e6, limit/1e6)
	}
}

// TestStreamIngestGate holds the out-of-core build to its memory and wall
// contracts on the full-scale friendster analogue, both sides measured
// live in this process. Memory: the streaming two-scan build's allocation
// (TotalAlloc delta, an upper bound on peak heap growth) must stay within
// 125% of the final CSR footprint — the pooled cursor matrix and the
// per-worker block buffers are the only working set on top of the output
// arrays. Wall: streaming the KMB2 file must finish within 120% of the
// materialize-then-build twin on the same file; both pay the same block
// decode and the same final adjacency sort, and the twin's extra
// full-edge-list materialization pays for the streaming path's second
// scan. A warmup pair outside the timed window fills the buffer pools and
// a forced GC clears neighboring tests' allocation debt; reps are
// interleaved (stream, twin, stream, ...) with best-of-4 kept per side so
// a transient stall cannot land on one side alone — on a busy one-core
// host, sequential per-side windows let exactly that happen.
func TestStreamIngestGate(t *testing.T) {
	cfg := Config{Scale: Full, Threads: 4, Reps: 1}
	fx, cleanup := cfg.ioFixtureFor(gen.Friendster)
	defer cleanup()
	fx.streamKMB2(cfg.Threads) // warm the block and count pools
	fx.loadKMB2(cfg.Threads)
	gort.GC()

	var stream, inmem PerfRecord
	for rep := 0; rep < 4; rep++ {
		s := cfg.timeOp(PerfRecord{Name: "gate_stream"}, func() {},
			func() { fx.streamKMB2(cfg.Threads) })
		if rep == 0 || s.WallNsPerOp < stream.WallNsPerOp {
			stream = s
		}
		m := cfg.timeOp(PerfRecord{Name: "gate_inmem"}, func() {},
			func() { fx.loadKMB2(cfg.Threads) })
		if rep == 0 || m.WallNsPerOp < inmem.WallNsPerOp {
			inmem = m
		}
	}
	csr := csrBytes(fx.g)
	if stream.PeakAllocBytes == 0 || inmem.WallNsPerOp == 0 {
		t.Fatal("streaming gate measured nothing; gate workload is broken")
	}
	t.Logf("csr=%dKB stream alloc=%dKB (%.2fx) | stream=%.1fms inmem=%.1fms",
		csr/1024, stream.PeakAllocBytes/1024, float64(stream.PeakAllocBytes)/float64(csr),
		stream.WallNsPerOp/1e6, inmem.WallNsPerOp/1e6)
	if limit := csr + csr/4; stream.PeakAllocBytes > limit {
		t.Errorf("streaming build allocated %d bytes, above 125%% of the %d-byte CSR (limit %d)",
			stream.PeakAllocBytes, csr, limit)
	}
	if limit := inmem.WallNsPerOp * 1.2; stream.WallNsPerOp > limit {
		t.Errorf("streaming build = %.1fms, above 120%% of the in-memory build %.1fms (limit %.1fms)",
			stream.WallNsPerOp/1e6, inmem.WallNsPerOp/1e6, limit/1e6)
	}
}

// TestReorderLocalityGate holds the §14 blocked-degree reordering to a real
// win: dense CC-SV on the locality workload (a 2^17-node R-MAT whose
// property and adjacency arrays spill the last-level cache) must finish
// within 95% of the unreordered run at 4 hosts x 4 threads, both sides
// measured live in this process. An untimed warmup pair plus a forced GC
// clears allocation debt left by neighboring tests, reps are interleaved
// (base, reordered, base, ...) so clock drift lands on both sides equally,
// and best-of-5 damps scheduler noise; the measured ratio sits near 88-92%
// on one core, leaving several points of margin. The suite's standard
// R-MAT (2^11 nodes) fits in cache outright and shows no spread, which is
// why this gate carries its own instance — the same move the
// frontier-bytes gate makes. Reorder + partition run inside NewCluster,
// outside the timed window, so the gate isolates the steady-state locality
// effect; the reorder pass's own cost is bounded by
// TestReorderBuildCostGate below.
func TestReorderLocalityGate(t *testing.T) {
	cfg := Config{Scale: Full, Threads: 4}
	g := cfg.localityGraph()
	once := func(pol graph.ReorderPolicy) time.Duration {
		cluster, err := runtime.NewCluster(g, runtime.Config{
			NumHosts: 4, ThreadsPerHost: cfg.Threads, Reorder: pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		out := make([]graph.NodeID, g.NumNodes())
		start := time.Now()
		cluster.Run(func(h *runtime.Host) {
			algorithms.CCSV(h, algorithms.Config{Variant: npm.Full, Dense: true}, out)
		})
		return time.Since(start)
	}
	once("")
	once(graph.ReorderBlockedDegree)
	gort.GC()
	base, reord := time.Duration(-1), time.Duration(-1)
	for rep := 0; rep < 5; rep++ {
		if b := once(""); base < 0 || b < base {
			base = b
		}
		if r := once(graph.ReorderBlockedDegree); reord < 0 || r < reord {
			reord = r
		}
	}
	if base <= 0 {
		t.Fatal("unreordered CC run measured zero wall time; gate workload is broken")
	}
	t.Logf("dense CC-SV 4h/4t on 2^17 R-MAT: reordered=%.1fms base=%.1fms (%.1f%%)",
		float64(reord)/1e6, float64(base)/1e6, 100*float64(reord)/float64(base))
	if limit := base * 95 / 100; reord > limit {
		t.Errorf("reordered CC = %.1fms, above 95%% of the unreordered %.1fms (limit %.1fms)",
			float64(reord)/1e6, float64(base)/1e6, float64(limit)/1e6)
	}
}

// TestReorderBuildCostGate bounds the reorder pass itself: the fused
// BuildReordered over the scattered friendster-analogue KMB2 file must
// finish within 115% of the plain two-scan Build on the same bytes — the
// degree-keyed sort and the permuted CSR scatter together may cost at most
// 15% of build time. The fused pass reuses the first scan's degree counts
// for the permutation and scatters the second scan straight into the
// permuted CSR, which is what keeps the delta that small (a standalone
// post-build Reorder re-walks the whole CSR and costs a large fraction of
// a build). The scattered fixture matters: a KMB2 dumped from a sorted CSR
// hands the plain build a nearly-sorted adjacency, billing the reordered
// side for a full adjacency sort the baseline never pays — raw ingest
// order makes both sides sort from scratch. Both sides live with an
// untimed warmup pair and a forced GC first, reps interleaved and
// best-of-5 kept per side so a transient stall cannot land on one side
// alone.
func TestReorderBuildCostGate(t *testing.T) {
	cfg := Config{Scale: Full, Threads: 4}
	fx, cleanup := cfg.ioFixtureScattered(gen.Friendster)
	defer cleanup()
	fx.streamKMB2(cfg.Threads) // warm the block and count pools
	fx.streamKMB2Reordered(cfg.Threads, graph.ReorderBlockedDegree, 4)
	gort.GC()

	timed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	plain, fused := time.Duration(-1), time.Duration(-1)
	for rep := 0; rep < 5; rep++ {
		if p := timed(func() { fx.streamKMB2(cfg.Threads) }); plain < 0 || p < plain {
			plain = p
		}
		f := timed(func() { fx.streamKMB2Reordered(cfg.Threads, graph.ReorderBlockedDegree, 4) })
		if fused < 0 || f < fused {
			fused = f
		}
	}
	if plain <= 0 {
		t.Fatal("plain stream build measured zero wall time; gate workload is broken")
	}
	t.Logf("stream build: plain=%.1fms fused reorder=%.1fms (%.1f%%)",
		float64(plain)/1e6, float64(fused)/1e6, 100*float64(fused)/float64(plain))
	if limit := plain + plain*15/100; fused > limit {
		t.Errorf("fused build+reorder = %.1fms, above 115%% of the plain build %.1fms (limit %.1fms)",
			float64(fused)/1e6, float64(plain)/1e6, float64(limit)/1e6)
	}
}

// TestFrontierReduceSyncBytesGate gates the frontier's wire win: at 8 hosts
// a frontier-driven CC-SV run must move at most 60% of the dense run's
// reduce-sync bytes. The graph needs enough hook rounds for the dense
// loop's re-sent ineffective hooks to accumulate — a sparse random graph
// gives four-plus hook rounds per phase — and both runs are deterministic
// (fixed seed, hashed partition, order-independent section sizes), so
// the comparison is exact, not statistical.
func TestFrontierReduceSyncBytesGate(t *testing.T) {
	g := gen.ErdosRenyi(2048, 6144, false, 3)
	run := func(dense bool) int64 {
		cluster, err := runtime.NewCluster(g, runtime.Config{NumHosts: 8, ThreadsPerHost: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		out := make([]graph.NodeID, g.NumNodes())
		cluster.Run(func(h *runtime.Host) {
			algorithms.CCSV(h, algorithms.Config{Dense: dense}, out)
		})
		_, tb := cluster.CommStatsByTag()
		return tb[comm.TagReduce]
	}
	dense := run(true)
	sparse := run(false)
	if dense == 0 {
		t.Fatal("dense CC run sent no reduce bytes; gate workload is broken")
	}
	if limit := dense * 60 / 100; sparse > limit {
		t.Errorf("frontier reduce-sync bytes = %d, above the 60%%-of-dense gate %d (dense = %d)",
			sparse, limit, dense)
	}
}
