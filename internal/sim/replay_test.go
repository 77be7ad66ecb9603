package sim

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/shardplane"
)

// TestReplayClusterIndependentOfShards pins the topology rule: a
// worker's locality cluster is a function of its global index — as the
// manager's is a function of the worker's Hello — so the same Config
// describes the same cluster whatever the partition count. (It used to
// be derived from the shard-local join index: at 3 shards w0001, w0003,
// w0004 and w0005 sat in the other cluster.)
func TestReplayClusterIndependentOfShards(t *testing.T) {
	cfg := Config{
		App:            &apps.CostModel{Name: "clusterlib", EnvPackedBytes: 1 << 20},
		Level:          core.L2,
		Workers:        6,
		SlotsPerWorker: 2,
		PeerTransfers:  true,
		Clusters:       2,
		Seed:           1,
	}
	one, three, dflt := NewReplay(cfg, 1), NewReplay(cfg, 3), NewReplay(cfg, 0)
	if n := len(dflt.shards); n != shardplane.DefaultShards {
		t.Fatalf("shards < 1 built %d shards, want shardplane.DefaultShards = %d", n, shardplane.DefaultShards)
	}
	// Two mid-run joins continue the numbering — and the rule.
	for i := 0; i < 2; i++ {
		a, b, c := one.AddWorker(), three.AddWorker(), dflt.AddWorker()
		if a != b || a != c {
			t.Fatalf("join %d numbered differently: %s, %s, %s", i, a, b, c)
		}
	}
	want := []string{"0", "0", "0", "1", "1", "1", "0", "1"}
	for i, cluster := range want {
		id := "w" + pad4(i)
		for _, r := range []*Replay{one, three, dflt} {
			v := r.ViewFor(id)
			if v == nil {
				t.Fatalf("%s is not live at %d shards", id, len(r.shards))
			}
			if v.Cluster != cluster {
				t.Errorf("%s at %d shards: cluster %q, want %q", id, len(r.shards), v.Cluster, cluster)
			}
		}
	}
	if one.ViewFor("w0008") != nil {
		t.Errorf("ViewFor invented a worker that never joined")
	}
}
