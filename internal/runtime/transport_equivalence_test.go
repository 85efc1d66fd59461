package runtime_test

import (
	"fmt"
	"math"
	"testing"

	"kimbap/internal/algorithms"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Cross-transport, cross-map equivalence: the transport moves bytes and
// the map kind encodes them, so neither may change what an algorithm
// computes. CC labels must be bit-identical to the sequential reference,
// and Louvain assignments bit-identical to the in-memory Full-map run, for
// every {Full, hash} × {in-memory, TCP} combination at 2 and 4 hosts. Both
// map kinds emit the same reduce frame but fill it differently — the Full
// map picks a sparse or dense body per section, the hash map (§6.4 SGR+CF
// ablation) always sends sparse bodies — so this is also the end-to-end
// guard on the delta-varint reduce codec from both encoders: a mis-based
// or mis-sectioned key decodes to the wrong node and shows up here as a
// diverging label.

// transportMaps are the map variants the matrix covers: one per reduce
// frame encoder.
var transportMaps = []struct {
	name    string
	variant npm.Variant
}{{"full", npm.Full}, {"hash", npm.SGRCF}}

func transportConfigs(hosts int) []runtime.Config {
	var out []runtime.Config
	for _, tcp := range []bool{false, true} {
		out = append(out, runtime.Config{
			NumHosts: hosts, ThreadsPerHost: 2, UseTCP: tcp,
		})
	}
	return out
}

func configName(cfg runtime.Config) string {
	transport := "local"
	if cfg.UseTCP {
		transport = "tcp"
	}
	return fmt.Sprintf("%s/%dh", transport, cfg.NumHosts)
}

func TestCCEquivalentAcrossTransportsAndMaps(t *testing.T) {
	g := gen.RMAT(8, 5, false, 6)
	want := graph.ReferenceComponents(g)
	for _, m := range transportMaps {
		for _, hosts := range []int{2, 4} {
			for _, cfg := range transportConfigs(hosts) {
				cfg.Policy = partition.CVC
				t.Run(m.name+"/"+configName(cfg), func(t *testing.T) {
					c, err := runtime.NewCluster(g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					out := make([]graph.NodeID, g.NumNodes())
					c.Run(func(h *runtime.Host) {
						algorithms.CCSV(h, algorithms.Config{Variant: m.variant}, out)
					})
					for i := range want {
						if out[i] != want[i] {
							t.Fatalf("node %d = %d, want %d", i, out[i], want[i])
						}
					}
				})
			}
		}
	}
}

func TestLouvainEquivalentAcrossTransportsAndMaps(t *testing.T) {
	g := gen.Communities(4, 25, 4, 1, true, 13)
	for _, hosts := range []int{2, 4} {
		var ref *algorithms.CDResult
		var refName string
		for _, m := range transportMaps {
			for _, cfg := range transportConfigs(hosts) {
				name := m.name + "/" + configName(cfg)
				t.Run(name, func(t *testing.T) {
					res, err := algorithms.Louvain(g, cfg,
						algorithms.Config{Variant: m.variant}, algorithms.CDOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref, refName = &res, name
						return
					}
					// Assignments are integers and must match exactly. The
					// modularity statistic is a float sum whose local addition
					// order varies with thread scheduling, so it only agrees
					// to round-off (the cross-host combination tree itself is
					// fixed by the recursive-doubling allreduce).
					if math.Abs(res.Modularity-ref.Modularity) > 1e-9 {
						t.Fatalf("modularity %v != %s's %v",
							res.Modularity, refName, ref.Modularity)
					}
					for i := range ref.Assignment {
						if res.Assignment[i] != ref.Assignment[i] {
							t.Fatalf("node %d assigned %d, %s assigned %d",
								i, res.Assignment[i], refName, ref.Assignment[i])
						}
					}
				})
			}
		}
	}
}
