package core_test

import (
	"strings"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/sim"
)

// TestMonitorMetricsCounts verifies the streaming pipeline's
// instruments against ground truth the test can compute independently:
// every report ingested, every update counted, every user's shard and
// antenna quality visible.
func TestMonitorMetricsCounts(t *testing.T) {
	res := runScenario(t, 61, func(sc *sim.Scenario) {
		sc.Users = sim.SideBySide(2, 4, 10, 14)
		sc.Duration = 40 * time.Second
	})

	reg := obs.NewRegistry()
	mm := core.NewMonitorMetrics(reg)
	updates, err := core.MonitorStream(res.Reports, core.MonitorConfig{
		Pipeline:    core.Config{Users: res.UserIDs},
		UpdateEvery: 5 * time.Second,
		Metrics:     mm,
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := mm.Ingested.Value(); got != uint64(len(res.Reports)) {
		t.Errorf("ingested = %d, want %d", got, len(res.Reports))
	}
	if got := mm.Updates.Value(); got != uint64(len(updates)) {
		t.Errorf("updates counter = %d, emitted %d", got, len(updates))
	}
	if mm.Ticks.Value() == 0 {
		t.Error("no ticks counted")
	}
	if got := mm.TickLatency.Count(); got != mm.Ticks.Value() {
		t.Errorf("tick latency observations = %d, ticks = %d", got, mm.Ticks.Value())
	}
	if got := mm.ActiveUsers.Value(); got != float64(len(res.UserIDs)) {
		t.Errorf("active users = %v, want %d", got, len(res.UserIDs))
	}
	if got := mm.Dropped.Value(); got != 0 {
		t.Errorf("lossless run dropped %d", got)
	}

	// The per-(user, antenna) quality gauges must appear on the
	// exposition surface for every user, and the worker-pool gauges
	// (pool size, per-worker queue mark) for worker 0 at least.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	hasSeries := func(name, label string) bool {
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, name) && strings.Contains(line, label) {
				return true
			}
		}
		return false
	}
	for _, uid := range res.UserIDs {
		label := `user="` + core.UserLabel(uid) + `"`
		for _, name := range []string{
			"tagbreathe_antenna_score{",
			"tagbreathe_antenna_read_rate_hz{",
			"tagbreathe_antenna_mean_rssi_dbm{",
		} {
			if !hasSeries(name, label) {
				t.Errorf("no %s series with %s", name, label)
			}
		}
	}
	if !hasSeries("tagbreathe_monitor_shard_queue_high_water{", `worker="`+core.WorkerLabel(0)+`"`) {
		t.Error("no shard queue high-water series for worker 0")
	}
	if mm.ShardWorkers.Value() < 1 {
		t.Errorf("shard workers gauge = %v, want >= 1", mm.ShardWorkers.Value())
	}
}

// TestMonitorMetricsDropCounter pins the satellite contract: the shed
// counter is the metric, and Stats is a thin reader of the counters.
func TestMonitorMetricsDropCounter(t *testing.T) {
	res := runScenario(t, 62, func(sc *sim.Scenario) {
		sc.Users = sim.SideBySide(2, 4, 10, 14)
		sc.Duration = 30 * time.Second
	})

	mm := core.NewMonitorMetrics(obs.NewRegistry())
	m := core.NewMonitor(core.MonitorConfig{
		Pipeline:    core.Config{Users: res.UserIDs},
		UpdateEvery: 2 * time.Second,
		ShardQueue:  1,
		Overload:    core.OverloadDropNewest,
		Metrics:     mm,
	})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range m.Updates() {
		}
	}()
	for _, r := range res.Reports {
		m.Ingest(r)
	}
	m.CloseInput()
	<-drained // counters are settled once the update stream closes

	st := m.Stats()
	if st.Dropped != mm.Dropped.Value() {
		t.Errorf("Stats().Dropped = %d, counter = %d", st.Dropped, mm.Dropped.Value())
	}
	if st.Dropped == 0 {
		t.Fatal("a 1-slot queue under OverloadDropNewest shed nothing; the test no longer exercises the drop path")
	}
	if mm.Ingested.Value() != uint64(len(res.Reports)) {
		t.Errorf("ingested = %d, want %d (drops must not hide ingress)",
			mm.Ingested.Value(), len(res.Reports))
	}
	// Exact overload accounting: after a drain, every admitted report
	// is exactly one of processed or dropped — no report vanishes and
	// none is double-counted, even at saturation.
	if got := mm.Processed.Value() + mm.Dropped.Value(); got != uint64(len(res.Reports)) {
		t.Errorf("processed (%d) + dropped (%d) = %d, want %d admitted reports",
			mm.Processed.Value(), mm.Dropped.Value(), got, len(res.Reports))
	}
	if st.Processed != mm.Processed.Value() {
		t.Errorf("Stats().Processed = %d, counter = %d", st.Processed, mm.Processed.Value())
	}
	if st.Ticks != mm.Ticks.Value() || st.Ticks == 0 {
		t.Errorf("Stats().Ticks = %d, counter = %d", st.Ticks, mm.Ticks.Value())
	}
	if st.SkippedTicks != mm.TicksSkipped.Value() {
		t.Errorf("Stats().SkippedTicks = %d, counter = %d", st.SkippedTicks, mm.TicksSkipped.Value())
	}
	if st.DegradedWorkers != int(mm.DegradedWorkers.Value()) {
		t.Errorf("Stats().DegradedWorkers = %d, gauge = %v", st.DegradedWorkers, mm.DegradedWorkers.Value())
	}
	// The ladder is disabled: the peak gauge never moved, and the
	// snapshot reports full cadence.
	if st.PeakStretch != 1 {
		t.Errorf("Stats().PeakStretch = %d with the ladder disabled, want 1", st.PeakStretch)
	}
	var shed uint64
	for cls, n := range st.ShedByClass {
		if c := mm.ShedByClass.With(cls).Value(); n != c {
			t.Errorf("Stats().ShedByClass[%q] = %d, counter = %d", cls, n, c)
		}
		shed += n
	}
	if len(st.ShedByClass) != 3 || shed != st.Dropped {
		t.Errorf("ShedByClass %v sums to %d over %d classes, want Dropped = %d over 3",
			st.ShedByClass, shed, len(st.ShedByClass), st.Dropped)
	}
}

func TestEstimateMetrics(t *testing.T) {
	res := runScenario(t, 63, func(sc *sim.Scenario) {
		sc.Users = sim.SideBySide(3, 4, 9, 13, 17)
		sc.Duration = 40 * time.Second
	})

	em := core.NewEstimateMetrics(obs.NewRegistry())
	ests, err := core.Estimate(res.Reports, core.Config{
		Users:   res.UserIDs,
		Metrics: em,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) == 0 {
		t.Fatal("no estimates")
	}
	if got := em.Runs.Value(); got != 1 {
		t.Errorf("runs = %d, want 1", got)
	}
	if got := em.Shards.Value(); got != uint64(len(res.UserIDs)) {
		t.Errorf("shards = %d, want %d", got, len(res.UserIDs))
	}
	if got := em.ShardSeconds.Count(); got != uint64(len(res.UserIDs)) {
		t.Errorf("shard timings = %d, want %d", got, len(res.UserIDs))
	}
	if got := em.RunSeconds.Count(); got != 1 {
		t.Errorf("run timings = %d, want 1", got)
	}
	if em.Workers.Value() < 1 {
		t.Errorf("workers = %v", em.Workers.Value())
	}
	util := em.WorkerUtilization.Value()
	if util <= 0 || util > 1.000001 {
		t.Errorf("worker utilization = %v, want (0, 1]", util)
	}
}
