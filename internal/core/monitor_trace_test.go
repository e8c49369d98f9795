package core_test

import (
	"strings"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/obs"
)

// monitorWithTracer runs a one-minute scenario through a monitor wired
// with the given tracer/SLO and returns the registry text exposition
// after the pipeline drains.
func monitorWithTracer(t *testing.T, reg *obs.Registry, tr *obs.Tracer, slo time.Duration) (*core.Monitor, string) {
	t.Helper()
	res := runScenario(t, 31, nil)
	m := core.NewMonitor(core.MonitorConfig{
		Pipeline:     core.Config{Users: res.UserIDs},
		UpdateEvery:  5 * time.Second,
		Metrics:      core.NewMonitorMetrics(reg),
		Tracer:       tr,
		StalenessSLO: slo,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range m.Updates() {
		}
	}()
	for _, r := range res.Reports {
		if !m.Ingest(r) {
			t.Fatal("ingest refused mid-stream")
		}
	}
	m.Stop()
	<-done
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return m, sb.String()
}

func TestMonitorTracingEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, obs.TracerConfig{SampleEvery: 16, RingSize: 256})
	_, text := monitorWithTracer(t, reg, tr, 0)

	if tr.Completed() == 0 {
		t.Fatal("no traces completed over a minute of sampled stream")
	}
	for _, want := range []string{
		`tagbreathe_pipeline_stage_seconds_bucket{stage="ingest"`,
		`tagbreathe_pipeline_stage_seconds_bucket{stage="demux"`,
		`tagbreathe_pipeline_stage_seconds_bucket{stage="worker"`,
		`tagbreathe_pipeline_stage_seconds_bucket{stage="feed"`,
		`tagbreathe_pipeline_stage_seconds_bucket{stage="emit"`,
		"tagbreathe_pipeline_report_to_update_seconds_bucket",
		"tagbreathe_pipeline_traces_sampled_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Exemplars in the ring must be complete ledgers in pipeline order,
	// starting at ingest (this stream enters via Monitor.Ingest, so
	// there is no LLRP read/forward stamp) and ending at emit.
	exs := tr.Exemplars()
	if len(exs) == 0 {
		t.Fatal("no exemplars retained in the ring")
	}
	for _, ex := range exs {
		if len(ex.Stages) < 2 {
			t.Fatalf("exemplar %d has %d stages", ex.ID, len(ex.Stages))
		}
		if got := ex.Stages[0].Stage; got != "ingest" {
			t.Errorf("exemplar %d starts at %q, want ingest", ex.ID, got)
		}
		if got := ex.Stages[len(ex.Stages)-1].Stage; got != "emit" {
			t.Errorf("exemplar %d ends at %q, want emit", ex.ID, got)
		}
		if ex.E2ESeconds < 0 {
			t.Errorf("exemplar %d negative e2e %v", ex.ID, ex.E2ESeconds)
		}
		if ex.User == "" {
			t.Errorf("exemplar %d lost its user attribution", ex.ID)
		}
	}
}

// TestMonitorTracePreservesOrigin pins the hand-off contract: a report
// arriving with a TraceID (stamped upstream, e.g. at LLRP frame decode)
// keeps its origin — Ingest stamps rather than re-begins, so the trace's
// first stage stays the reader-side read.
func TestMonitorTracePreservesOrigin(t *testing.T) {
	// Odd stride: with two Begin sites each untraced report advances
	// the shared sample counter by two, so an even stride would starve
	// one site outright (it only ever sees one parity).
	tr := obs.NewTracer(nil, obs.TracerConfig{SampleEvery: 7, RingSize: 256})
	res := runScenario(t, 32, nil)
	m := core.NewMonitor(core.MonitorConfig{
		Pipeline: core.Config{Users: res.UserIDs},
		Tracer:   tr,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range m.Updates() {
		}
	}()
	// Play the LLRP layer's part: offer every report to the sampling
	// lottery at the read stage. Reports that lose arrive untraced and
	// may win Ingest's own lottery instead — both kinds flow together,
	// exactly as in live operation.
	origins := make(map[uint64]bool)
	for _, r := range res.Reports {
		if id := tr.Begin(obs.StageRead); id != 0 {
			r.TraceID = id
			origins[id] = true
		}
		m.Ingest(r)
	}
	m.Stop()
	<-done
	found := false
	for _, ex := range tr.Exemplars() {
		if !origins[ex.ID] {
			continue
		}
		found = true
		if got := ex.Stages[0].Stage; got != "read" {
			t.Errorf("upstream-originated trace %d starts at %q, want read", ex.ID, got)
		}
		hasIngest := false
		for _, st := range ex.Stages {
			if st.Stage == "ingest" {
				hasIngest = true
			}
		}
		if !hasIngest {
			t.Errorf("trace %d missing the ingest stamp", ex.ID)
		}
	}
	if !found {
		t.Fatal("no upstream-originated trace completed; cannot verify origin preservation")
	}
}

func TestMonitorEngineLagGauges(t *testing.T) {
	reg := obs.NewRegistry()
	_, text := monitorWithTracer(t, reg, nil, 0)
	for _, want := range []string{
		`tagbreathe_engine_bins_pending{worker="`,
		`tagbreathe_engine_held_floor_age_seconds{worker="`,
		`tagbreathe_engine_filter_warmup_ratio{worker="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing per-worker lag gauge %q", want)
		}
	}
}

func TestMonitorStalenessSLO(t *testing.T) {
	// A generous SLO: everything emitted within the last hour is fresh.
	reg := obs.NewRegistry()
	m, text := monitorWithTracer(t, reg, nil, time.Hour)
	st := m.Stats()
	stale, total := st.StaleUsers, st.TrackedUsers
	if total == 0 {
		t.Fatal("no users tracked for freshness")
	}
	if stale != 0 {
		t.Errorf("%d/%d users stale under a 1h SLO right after a run", stale, total)
	}
	if err := m.FreshnessCheck()(); err != nil {
		t.Errorf("freshness check failed under a 1h SLO: %v", err)
	}
	if !strings.Contains(text, "tagbreathe_monitor_stale_users") ||
		!strings.Contains(text, "tagbreathe_monitor_oldest_update_age_seconds") {
		t.Error("exposition missing the freshness gauges")
	}

	// A 1 ns SLO: every user is stale the moment its update lands.
	m2, _ := monitorWithTracer(t, obs.NewRegistry(), nil, time.Nanosecond)
	st2 := m2.Stats()
	stale2, total2 := st2.StaleUsers, st2.TrackedUsers
	if total2 == 0 || stale2 != total2 {
		t.Errorf("want all %d users stale under a 1ns SLO, got %d", total2, stale2)
	}
	if err := m2.FreshnessCheck()(); err == nil {
		t.Error("freshness check passed under a 1ns SLO")
	}
}

func TestMonitorStalenessDisabled(t *testing.T) {
	m, _ := monitorWithTracer(t, obs.NewRegistry(), nil, 0)
	if st := m.Stats(); st.StaleUsers != 0 || st.TrackedUsers != 0 {
		t.Errorf("stale/tracked users with no SLO = (%d, %d), want (0, 0)", st.StaleUsers, st.TrackedUsers)
	}
	if err := m.FreshnessCheck()(); err != nil {
		t.Errorf("freshness check with no SLO must pass, got %v", err)
	}
}
