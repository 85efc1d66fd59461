package npm

import (
	"fmt"
	"sync"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/runtime"
)

// readOutcome reads n, reporting a panic (an unmaterialized node) instead
// of propagating it.
type readOutcome struct {
	v        graph.NodeID
	panicked bool
}

func tryRead(m Map[graph.NodeID], n graph.NodeID) (out readOutcome) {
	defer func() {
		if recover() != nil {
			out = readOutcome{panicked: true}
		}
	}()
	return readOutcome{v: m.Read(n)}
}

// TestMapReuseMatchesFreshMap runs two rounds of Set+InitSync, reduce and
// request on one reused map per host, next to a map created fresh for each
// round. Every read must agree: reuse through Set+InitSync is how the
// per-round maps of LV, LD, MIS and MSF are reset. In particular a remote
// value cached by the first round's RequestSync must not be served after
// the second round's InitSync — on the Full map such a read panics, like
// on a fresh map — and pinned mirrors read the reset values.
func TestMapReuseMatchesFreshMap(t *testing.T) {
	g := gen.RMAT(8, 4, false, 5)
	for _, v := range []Variant{Full, SGRCF, SGROnly, Vite, MC} {
		t.Run(string(v), func(t *testing.T) {
			const hosts = 2
			c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			store := kvstore.NewCluster(hosts, hosts)
			var mu sync.Mutex
			var errs []string
			c.Run(func(h *runtime.Host) {
				// A host keeps running its collectives after a mismatch, so
				// the peers do not hang; only its first mismatch is kept.
				failed := false
				fail := func(format string, args ...any) {
					if failed {
						return
					}
					failed = true
					mu.Lock()
					errs = append(errs, fmt.Sprintf(format, args...))
					mu.Unlock()
				}
				reused := newMapForHost(h, v, store)
				local := h.HP.Local
				// Remote nodes this host reads (its mirrors), then its masters.
				var remote, reads []graph.NodeID
				for l := h.HP.NumMasters; l < h.HP.NumLocal(); l++ {
					remote = append(remote, h.HP.GlobalID(graph.NodeID(l)))
				}
				lo, hi := h.HP.MasterRangeGlobal()
				reads = append(reads, remote...)
				for n := lo; n < hi; n++ {
					reads = append(reads, n)
				}
				for round := 0; round < 2; round++ {
					fresh := newMapForHost(h, v, store)
					maps := []Map[graph.NodeID]{reused, fresh}
					off := graph.NodeID(round * 100000)
					for _, m := range maps {
						h.ParForNodes(func(_ int, l graph.NodeID) {
							gid := h.HP.GlobalID(l)
							m.Set(gid, gid+off)
						})
						m.InitSync()
					}
					if round > 0 {
						for _, n := range remote {
							got, want := tryRead(reused, n), tryRead(fresh, n)
							if got != want {
								fail("host %d round %d: read of %d after InitSync = %+v, fresh map %+v",
									h.Rank, round, n, got, want)
							}
							if v == Full && !got.panicked {
								fail("host %d: node %d cached last round still readable after InitSync",
									h.Rank, n)
							}
						}
						// MC reduces straight into the store: no host may
						// start reducing while a peer is still reading.
						h.Barrier()
					}
					for _, m := range maps {
						h.ParForNodes(func(tid int, l graph.NodeID) {
							gid := h.HP.GlobalID(l)
							for _, d := range local.Neighbors(l) {
								m.Reduce(tid, h.HP.GlobalID(d), gid+off)
							}
						})
						m.ReduceSync()
						for _, n := range reads {
							m.Request(n)
						}
						m.RequestSync()
					}
					for _, n := range reads {
						if got, want := reused.Read(n), fresh.Read(n); got != want {
							fail("host %d round %d: node %d reads %d on the reused map, %d on a fresh one",
								h.Rank, round, n, got, want)
						}
					}
				}
				// Pinned mirrors must show a reset's values right after
				// InitSync, with no request or broadcast in between.
				reused.PinMirrors()
				h.ParForNodes(func(_ int, l graph.NodeID) {
					gid := h.HP.GlobalID(l)
					reused.Set(gid, gid+7)
				})
				reused.InitSync()
				for _, n := range remote {
					if got := reused.Read(n); got != n+7 {
						fail("host %d: pinned mirror %d reads %d after InitSync, want %d", h.Rank, n, got, n+7)
					}
				}
			})
			for _, e := range errs {
				t.Error(e)
			}
		})
	}
}
