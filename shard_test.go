package tagbreathe_test

import (
	"reflect"
	"testing"
	"time"

	"tagbreathe"
	"tagbreathe/internal/sim"
)

// multiUserScenario simulates the Fig. 13 side-by-side layout: n users
// breathing at distinct rates, one reader, two minutes.
func multiUserScenario(t *testing.T, n int, seed int64) *tagbreathe.Result {
	t.Helper()
	sc := tagbreathe.DefaultScenario()
	sc.Seed = seed
	sc.Users = tagbreathe.SideBySide(n, 4, 9, 12, 15, 18)
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEstimateShardedMatchesSequential is the sharding correctness
// gate: the same simulated multi-user report window through the
// sequential (Workers=1) and sharded (Workers=8) batch paths must
// produce identical UserEstimate output per user — not approximately
// equal, bit-identical. Shards share no state, so parallel execution
// must not change a single float.
func TestEstimateShardedMatchesSequential(t *testing.T) {
	res := multiUserScenario(t, 4, 42)

	seq, err := tagbreathe.Estimate(res.Reports, tagbreathe.Config{Users: res.UserIDs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	shd, err := tagbreathe.Estimate(res.Reports, tagbreathe.Config{Users: res.UserIDs, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}

	if len(seq) == 0 {
		t.Fatal("sequential path produced no estimates")
	}
	if len(seq) != len(shd) {
		t.Fatalf("user count diverged: sequential %d, sharded %d", len(seq), len(shd))
	}
	for uid, se := range seq {
		pe, ok := shd[uid]
		if !ok {
			t.Errorf("user %x present sequentially, absent sharded", uid)
			continue
		}
		if !reflect.DeepEqual(se, pe) {
			t.Errorf("user %x estimates diverged:\nsequential: %+v\nsharded:    %+v", uid, se, pe)
		}
	}
}

// TestEstimateShardedDeterministic guards the worker pool against
// scheduling-dependent output: repeated sharded runs over the same
// window must be identical.
func TestEstimateShardedDeterministic(t *testing.T) {
	res := multiUserScenario(t, 3, 43)
	cfg := tagbreathe.Config{Users: res.UserIDs, Workers: 4}
	first, err := tagbreathe.Estimate(res.Reports, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := tagbreathe.Estimate(res.Reports, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("sharded run %d diverged from the first", i+2)
		}
	}
}

// TestMonitorShardedDeterministicAndOrdered guards the monitor's
// demux → shard → collector pipeline: the same stream through the
// sequential reference (one worker) and an eight-worker pool, twice,
// must yield the identical update sequence — same users, same ticks,
// same floats — globally ordered by stream time and by user ID within
// a tick, regardless of shard scheduling. The inputs are a three-user
// scenario and 1k synthetic users (one tag each at 2 Hz).
func TestMonitorShardedDeterministicAndOrdered(t *testing.T) {
	res := multiUserScenario(t, 3, 44)
	syn, err := sim.NewSynth(sim.SynthConfig{Users: 1000, TagsPerUser: 1, PerTagHz: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		reports []tagbreathe.TagReport
		cfg     tagbreathe.MonitorConfig
	}{
		{"scenario", res.Reports, tagbreathe.MonitorConfig{UpdateEvery: 5 * time.Second}},
		{"synth1k", syn.Generate(20 * time.Second),
			tagbreathe.MonitorConfig{Window: 10 * time.Second, UpdateEvery: 5 * time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first []tagbreathe.RateUpdate
			for run, workers := range []int{1, 8, 8} {
				cfg := tc.cfg
				cfg.ShardWorkers = workers
				ups, err := tagbreathe.MonitorStream(tc.reports, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if run > 0 {
					if !reflect.DeepEqual(first, ups) {
						t.Fatalf("run %d (%d workers) diverged from the one-worker run: %d vs %d updates",
							run+1, workers, len(ups), len(first))
					}
					continue
				}
				first = ups
				if len(first) == 0 {
					t.Fatal("no updates")
				}
				for i := 1; i < len(first); i++ {
					a, b := first[i-1], first[i]
					if b.Time < a.Time {
						t.Fatalf("update %d time %v regressed below %v", i, b.Time, a.Time)
					}
					if b.Time == a.Time && b.UserID <= a.UserID {
						t.Fatalf("update %d user %x out of order within tick at %v", i, b.UserID, b.Time)
					}
				}
			}
		})
	}
}

// TestMonitorOverloadPolicies exercises both shard-queue overload
// policies end to end: blocking backpressure must be lossless (zero
// drops), and drop-newest must keep producing updates even with a
// deliberately starved one-slot queue.
func TestMonitorOverloadPolicies(t *testing.T) {
	res := multiUserScenario(t, 2, 45)

	m := tagbreathe.NewMonitor(tagbreathe.MonitorConfig{
		Pipeline:    tagbreathe.Config{Users: res.UserIDs},
		UpdateEvery: 2 * time.Second,
	})
	done := make(chan int)
	go func() {
		n := 0
		for range m.Updates() {
			n++
		}
		done <- n
	}()
	for _, r := range res.Reports {
		m.Ingest(r)
	}
	m.CloseInput()
	if n := <-done; n == 0 {
		t.Error("blocking monitor produced no updates")
	}
	if d := m.Stats().Dropped; d != 0 {
		t.Errorf("OverloadBlock dropped %d reports, want 0", d)
	}

	drops, err := tagbreathe.MonitorStream(res.Reports, tagbreathe.MonitorConfig{
		Pipeline:    tagbreathe.Config{Users: res.UserIDs},
		UpdateEvery: 2 * time.Second,
		ShardQueue:  1,
		Overload:    tagbreathe.OverloadDropNewest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(drops) == 0 {
		t.Error("drop-newest monitor produced no updates")
	}
}
