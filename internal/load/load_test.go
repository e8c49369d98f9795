package load

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/sim"
)

// TestCapacitySmall is the scale regression gate: the capacity harness
// at 1k (and, outside -short, 10k) users must be lossless under
// OverloadBlock, hold per-user memory inside budget with monotone
// growth, keep the goroutine count at O(workers) — the invariant the
// worker-pool refactor exists for — and, at 1k, produce collector
// output identical to a sequential (one-worker) replay.
func TestCapacitySmall(t *testing.T) {
	// Budget per user: the engine's window state runs a few KB
	// (differencer, fused-bin ring, ~95-tap filter, antenna stats);
	// 64 KB leaves headroom for allocator slack without masking a
	// structural regression (a goroutine+queue per user costs ~30 KB
	// alone and would blow straight through).
	const bytesPerUserBudget = 64 << 10

	counts := []int{1000}
	if !testing.Short() {
		counts = append(counts, 10000)
	}
	var prevHeap uint64
	for _, users := range counts {
		p, err := RunPoint(Options{Users: users, Seed: 7})
		if err != nil {
			t.Fatalf("%d users: %v", users, err)
		}
		if p.Dropped != 0 {
			t.Errorf("%d users: OverloadBlock dropped %d reports, want 0", users, p.Dropped)
		}
		if p.Processed != uint64(p.Reports) {
			t.Errorf("%d users: processed %d of %d reports", users, p.Processed, p.Reports)
		}
		if p.Updates == 0 {
			t.Errorf("%d users: no rate updates emitted", users)
		}
		if p.BytesPerUser > bytesPerUserBudget {
			t.Errorf("%d users: %.0f bytes/user exceeds the %d-byte budget",
				users, p.BytesPerUser, bytesPerUserBudget)
		}
		if p.HeapBytes <= prevHeap {
			t.Errorf("%d users: heap %d not above the previous count's %d (growth must be monotone in users)",
				users, p.HeapBytes, prevHeap)
		}
		prevHeap = p.HeapBytes
		// O(workers), not O(users): the whole process — test runner,
		// harness, monitor — must stay far below the user count.
		if limit := runtime.GOMAXPROCS(0)*4 + 32; p.Goroutines > limit {
			t.Errorf("%d users: %d goroutines at steady state, want ≤ %d (worker-pool invariant)",
				users, p.Goroutines, limit)
		}
		// Tracing is on by default: every point must carry end-to-end
		// latency quantiles, and the quantiles must be ordered.
		if p.TracesCompleted == 0 {
			t.Errorf("%d users: no traces completed (default sampling should cover a 20 s stream)", users)
		}
		if p.E2EP50Micros <= 0 || p.E2EP99Micros < p.E2EP50Micros {
			t.Errorf("%d users: malformed e2e quantiles p50=%.1fµs p99=%.1fµs",
				users, p.E2EP50Micros, p.E2EP99Micros)
		}
		t.Logf("users=%d: %.0f reports/s, %.0f B/user, tick p99 %.1f µs, e2e p50/p99 %.0f/%.0f µs (%d traces), %d goroutines",
			users, p.ReportsPerSec, p.BytesPerUser, p.TickP99Micros,
			p.E2EP50Micros, p.E2EP99Micros, p.TracesCompleted, p.Goroutines)
	}
}

// TestCapacityMatchesSequentialReplay pins the worker pool to the
// sequential reference: the same 1k-user stream through a one-worker
// monitor and a many-worker monitor must yield identical update
// sequences — same users, same ticks, same floats.
func TestCapacityMatchesSequentialReplay(t *testing.T) {
	syn, err := sim.NewSynth(sim.SynthConfig{Users: 1000, TagsPerUser: 1, PerTagHz: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reports := syn.Generate(20 * time.Second)
	base := core.MonitorConfig{
		Window:      10 * time.Second,
		UpdateEvery: 5 * time.Second,
	}

	seqCfg := base
	seqCfg.ShardWorkers = 1
	seq, err := core.MonitorStream(reports, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("sequential replay produced no updates")
	}

	poolCfg := base
	poolCfg.ShardWorkers = 8
	pool, err := core.MonitorStream(reports, poolCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, pool) {
		t.Fatalf("worker-pool output diverged from sequential replay: %d vs %d updates",
			len(pool), len(seq))
	}
}

// TestDropAccountingAtSaturation is the overload-path gate: with
// one-slot worker queues under OverloadDropNewest the demux must shed,
// and the drops counter must equal the harness-observed loss exactly —
// admitted = processed + dropped, nothing vanishes, nothing is counted
// twice.
func TestDropAccountingAtSaturation(t *testing.T) {
	p, err := RunPoint(Options{
		Users:      500,
		ShardQueue: 1,
		Overload:   core.OverloadDropNewest,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dropped == 0 {
		t.Error("one-slot queues at 500 users shed nothing; saturation not reached")
	}
	observedLoss := uint64(p.Reports) - p.Processed
	if p.Dropped != observedLoss {
		t.Errorf("drops counter %d != harness-observed loss %d", p.Dropped, observedLoss)
	}
	if p.Processed+p.Dropped != uint64(p.Reports) {
		t.Errorf("processed %d + dropped %d != %d admitted", p.Processed, p.Dropped, p.Reports)
	}
	// Note: with queues this starved the engines rarely accumulate
	// enough window to emit rate updates; liveness under drop-newest
	// (updates keep flowing) is covered by TestMonitorOverloadPolicies
	// with a realistic stream. This test's contract is the accounting.
}

// TestProbeDegradationFigures: an unpaced flood through small queues
// with the ladder armed must engage tick stretch and record a non-zero
// degraded-tick occupancy — the columns the capacity model's probe
// rows carry — while the admitted = processed + dropped accounting
// stays exact under stretch.
func TestProbeDegradationFigures(t *testing.T) {
	p, err := RunPoint(Options{
		Users:      500,
		ShardQueue: 64,
		Overload:   core.OverloadDropNewest,
		Degrade:    core.DegradeConfig{MaxStretch: 8},
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.PeakStretch < 2 {
		t.Errorf("peak stretch %d under an unpaced flood, want >= 2 (ladder never engaged)", p.PeakStretch)
	}
	if p.DegradedTickFrac <= 0 {
		t.Errorf("degraded-tick occupancy %.4f, want > 0", p.DegradedTickFrac)
	}
	if p.Processed+p.Dropped != uint64(p.Reports) {
		t.Errorf("accounting broken under stretch: processed %d + dropped %d != %d admitted",
			p.Processed, p.Dropped, p.Reports)
	}
	t.Logf("peak stretch %d×, degraded-tick occupancy %.2f%%, drop frac %.2f%%",
		p.PeakStretch, 100*p.DegradedTickFrac, 100*p.DropFrac)
}

// TestWirePointSmall drives a small load over the loopback LLRP path:
// real framing, real socket, zero loss, live updates.
func TestWirePointSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("wire path round-trip in -short mode")
	}
	p, err := RunWirePoint(Options{Users: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if p.Processed != uint64(p.Reports) {
		t.Errorf("wire path processed %d of %d reports", p.Processed, p.Reports)
	}
	if p.Dropped != 0 {
		t.Errorf("wire path dropped %d reports under OverloadBlock", p.Dropped)
	}
	if p.Updates == 0 {
		t.Error("wire path produced no updates")
	}
	// Wire traces originate at LLRP frame decode, so the e2e figure
	// includes the read→ingest hop.
	if p.TracesCompleted == 0 {
		t.Error("wire path completed no traces")
	} else if p.E2EP50Micros <= 0 {
		t.Errorf("wire path e2e p50 %.1f µs, want > 0", p.E2EP50Micros)
	}
}

// TestPointAccountingGate hands the shared point tail counts no real
// run produces — a drop under OverloadBlock, a processed report nobody
// admitted — and checks that it fails the point. RunPoint and
// RunWirePoint both end in this tail.
func TestPointAccountingGate(t *testing.T) {
	opts := Options{Users: 1}
	opts.fillDefaults()
	for _, tc := range []struct {
		name               string
		admitted           int
		processed, dropped uint64
		overload           core.OverloadPolicy
		want               string
	}{
		{"block dropped", 1, 0, 1, core.OverloadBlock, "OverloadBlock dropped 1 reports"},
		{"unadmitted processed", 0, 2, 0, core.OverloadBlock, "accounting broken"},
		{"unadmitted dropped", 0, 0, 1, core.OverloadDropNewest, "accounting broken"},
		{"exact", 2, 1, 1, core.OverloadDropNewest, ""},
	} {
		opts.Overload = tc.overload
		pt := startPointRun(opts, tc.admitted)
		pt.mm.Processed.Add(tc.processed)
		pt.mm.Dropped.Add(tc.dropped)
		_, err := pt.finish(time.Now(), processCPUSeconds())
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSweepAndCheck runs a two-point sweep and exercises the baseline
// comparison in both directions.
func TestSweepAndCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	// Probe pace 0: unpaced probes keep the test fast; the real-time
	// probe semantics are the CLI default.
	model, err := Sweep([]int{200, 400}, Options{Stream: 15 * time.Second, Seed: 1}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Points) != 2 {
		t.Fatalf("sweep recorded %d points, want 2", len(model.Points))
	}
	for _, p := range model.Points {
		if p.Users == 0 || p.Reports == 0 || p.WallSeconds <= 0 {
			t.Errorf("degenerate sweep point: %+v", p)
		}
	}

	// A run checked against itself is within any budget.
	if bad := Check(model, model, 3); len(bad) != 0 {
		t.Errorf("self-check flagged: %v", bad)
	}
	// A baseline 10× tighter must flag the regression.
	tight := &Model{Points: make([]SweepPoint, len(model.Points))}
	copy(tight.Points, model.Points)
	for i := range tight.Points {
		tight.Points[i].TickP99Micros /= 10
		tight.Points[i].BytesPerUser /= 10
	}
	if bad := Check(model, tight, 3); len(bad) == 0 {
		t.Error("10× regression passed the 3× check")
	}
}
