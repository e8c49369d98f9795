package core_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/geom"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sim"
)

func runScenario(t *testing.T, seed int64, mutate func(*sim.Scenario)) *sim.Result {
	t.Helper()
	sc := sim.DefaultScenario()
	sc.Duration = time.Minute
	sc.Seed = seed
	if mutate != nil {
		mutate(sc)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMonitorStreamProducesUpdates(t *testing.T) {
	res := runScenario(t, 21, nil)
	updates, err := core.MonitorStream(res.Reports, core.MonitorConfig{
		Pipeline:    core.Config{Users: res.UserIDs},
		UpdateEvery: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) < 5 {
		t.Fatalf("only %d updates over a minute with 5 s stride", len(updates))
	}
	uid := res.UserIDs[0]
	truth := res.TrueRateBPM[uid]
	var good int
	for _, u := range updates {
		if u.UserID != uid {
			t.Fatalf("update for unknown user %x", u.UserID)
		}
		if u.Time <= 0 || u.Reads == 0 || u.AntennaPort == 0 {
			t.Fatalf("malformed update %+v", u)
		}
		if math.Abs(u.RateBPM-truth) < 1.5 {
			good++
		}
	}
	// Sliding 25 s windows are noisier than the full-run batch, but
	// the bulk of updates must land near truth.
	if float64(good) < 0.7*float64(len(updates)) {
		t.Errorf("only %d/%d updates within 1.5 bpm of truth %.1f", good, len(updates), truth)
	}
}

func TestMonitorUpdatesOrderedInTime(t *testing.T) {
	res := runScenario(t, 22, nil)
	updates, err := core.MonitorStream(res.Reports, core.MonitorConfig{
		Pipeline: core.Config{Users: res.UserIDs},
	})
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for _, u := range updates {
		if u.Time < last {
			t.Fatalf("update times regressed: %v after %v", u.Time, last)
		}
		last = u.Time
	}
}

func TestMonitorMultiUser(t *testing.T) {
	res := runScenario(t, 23, func(sc *sim.Scenario) {
		sc.Users = sim.SideBySide(3, 4, 9, 13, 17)
	})
	updates, err := core.MonitorStream(res.Reports, core.MonitorConfig{
		Pipeline:    core.Config{Users: res.UserIDs},
		UpdateEvery: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	perUser := map[uint64]int{}
	for _, u := range updates {
		perUser[u.UserID]++
	}
	for _, uid := range res.UserIDs {
		if perUser[uid] == 0 {
			t.Errorf("no updates for user %x", uid)
		}
	}
}

func TestMonitorStopIsIdempotentAndSafe(t *testing.T) {
	m := core.NewMonitor(core.MonitorConfig{})
	res := runScenario(t, 24, func(sc *sim.Scenario) { sc.Duration = 10 * time.Second })
	for _, r := range res.Reports[:100] {
		if !m.Ingest(r) {
			t.Fatal("ingest refused before stop")
		}
	}
	m.Stop()
	m.Stop() // second stop must not panic or deadlock
	if m.Ingest(res.Reports[100]) {
		t.Error("ingest accepted after stop")
	}
}

// TestMonitorIngestRacingStop stops a monitor while several producers
// are mid-ingest. Every Ingest must return — true before the input
// closed, false after — without panicking, and every report accepted
// must reach a shard worker.
func TestMonitorIngestRacingStop(t *testing.T) {
	res := runScenario(t, 26, func(sc *sim.Scenario) { sc.Duration = 30 * time.Second })
	m := core.NewMonitor(core.MonitorConfig{ShardWorkers: 2, UpdateEvery: 100 * time.Millisecond})
	const producers = 4
	var wg sync.WaitGroup
	var accepted [producers]int
	started := make(chan struct{}, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			for i := 0; ; i++ {
				if !m.Ingest(res.Reports[i%len(res.Reports)]) {
					return
				}
				accepted[p]++
			}
		}()
	}
	for p := 0; p < producers; p++ {
		<-started
	}
	time.Sleep(20 * time.Millisecond)
	m.Stop()
	wg.Wait() // every producer saw false
	if m.Ingest(res.Reports[0]) {
		t.Fatal("Ingest accepted a report after Stop")
	}
	total := 0
	for _, n := range accepted {
		total += n
	}
	if total == 0 {
		t.Fatal("no report was accepted before Stop")
	}
	if got := m.Stats().Processed; got != uint64(total) {
		t.Fatalf("workers processed %d reports, producers had %d accepted", got, total)
	}
}

func TestMonitorCloseInputDrains(t *testing.T) {
	res := runScenario(t, 25, func(sc *sim.Scenario) { sc.Duration = 40 * time.Second })
	m := core.NewMonitor(core.MonitorConfig{
		Pipeline:    core.Config{Users: res.UserIDs},
		UpdateEvery: 5 * time.Second,
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
	select {
	case n := <-done:
		if n == 0 {
			t.Error("no updates before drain completed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("monitor failed to drain after CloseInput")
	}
}

func TestMonitorAgreesWithBatch(t *testing.T) {
	res := runScenario(t, 26, func(sc *sim.Scenario) { sc.Duration = 90 * time.Second })
	uid := res.UserIDs[0]

	batch, err := core.EstimateUser(res.Reports, uid, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	updates, err := core.MonitorStream(res.Reports, core.MonitorConfig{
		Pipeline:    core.Config{Users: res.UserIDs},
		UpdateEvery: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("no monitor updates")
	}
	// The median streaming estimate matches the batch estimate.
	rates := make([]float64, 0, len(updates))
	for _, u := range updates {
		rates = append(rates, u.RateBPM)
	}
	med := median(rates)
	if math.Abs(med-batch.RateBPM) > 1.0 {
		t.Errorf("streaming median %.2f vs batch %.2f bpm", med, batch.RateBPM)
	}
}

func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestMonitorStreamEmptyInput(t *testing.T) {
	if _, err := core.MonitorStream(nil, core.MonitorConfig{}); err == nil {
		t.Error("expected error for empty stream")
	}
}

func TestMonitorAntennaSelection(t *testing.T) {
	// Two antennas on opposite walls; the user faces the far one, so
	// every update must come from it (§IV-D.3 selection).
	res := runScenario(t, 27, func(sc *sim.Scenario) {
		sc.Antennas = []reader.Antenna{
			{Port: 1, Position: geom.Vec3{Z: 1}},
			{Port: 2, Position: geom.Vec3{X: 8, Z: 1}},
		}
		sc.AntennaDwell = 250 * time.Millisecond
		sc.Users[0].OrientationDeg = 180 // back to port 1, facing port 2
	})
	updates, err := core.MonitorStream(res.Reports, core.MonitorConfig{
		Pipeline:    core.Config{Users: res.UserIDs},
		UpdateEvery: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("no updates")
	}
	for _, u := range updates {
		if u.AntennaPort != 2 {
			t.Fatalf("update from antenna %d, want 2 (the only one with LOS)", u.AntennaPort)
		}
	}
}

func TestMonitorApneaAlarms(t *testing.T) {
	// A nursery-style irregular breather (pauses ~6 s): with the alarm
	// enabled, some updates must carry pauses; a steady breather must
	// carry none.
	run := func(pattern sim.PatternKind) (withPauses, total int) {
		res := runScenario(t, 28, func(sc *sim.Scenario) {
			sc.Duration = 2 * time.Minute
			sc.DefaultDistance = 2
			sc.Users[0].Pattern = pattern
			sc.Users[0].RateBPM = 20
		})
		updates, err := core.MonitorStream(res.Reports, core.MonitorConfig{
			Pipeline:      core.Config{Users: res.UserIDs},
			UpdateEvery:   5 * time.Second,
			ApneaAlarmSec: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range updates {
			total++
			if len(u.Pauses) > 0 {
				withPauses++
			}
		}
		return withPauses, total
	}
	irregularAlarms, irregularTotal := run(sim.PatternIrregular)
	steadyAlarms, steadyTotal := run(sim.PatternMetronome)
	if irregularTotal == 0 || steadyTotal == 0 {
		t.Fatal("no updates")
	}
	if irregularAlarms == 0 {
		t.Error("no apnea alarms for an irregular breather with pauses")
	}
	if float64(steadyAlarms) > 0.1*float64(steadyTotal) {
		t.Errorf("false alarms on steady breathing: %d/%d updates", steadyAlarms, steadyTotal)
	}
}

func TestMonitorApneaAlarmsStreaming(t *testing.T) {
	// The incremental chain end to end: FilterFIRStreaming ticks use
	// the PauseTracker instead of re-detecting over the window, and
	// must reach the same clinical verdicts — alarms for an irregular
	// breather with pauses, none (within noise) for a metronome.
	run := func(pattern sim.PatternKind) (withPauses, total int) {
		res := runScenario(t, 28, func(sc *sim.Scenario) {
			sc.Duration = 2 * time.Minute
			sc.DefaultDistance = 2
			sc.Users[0].Pattern = pattern
			sc.Users[0].RateBPM = 20
		})
		updates, err := core.MonitorStream(res.Reports, core.MonitorConfig{
			Pipeline:      core.Config{Users: res.UserIDs, Filter: core.FilterFIRStreaming},
			UpdateEvery:   5 * time.Second,
			ApneaAlarmSec: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range updates {
			total++
			if len(u.Pauses) > 0 {
				withPauses++
			}
		}
		return withPauses, total
	}
	irregularAlarms, irregularTotal := run(sim.PatternIrregular)
	steadyAlarms, steadyTotal := run(sim.PatternMetronome)
	if irregularTotal == 0 || steadyTotal == 0 {
		t.Fatal("no updates")
	}
	if irregularAlarms == 0 {
		t.Error("no apnea alarms for an irregular breather in streaming mode")
	}
	if float64(steadyAlarms) > 0.1*float64(steadyTotal) {
		t.Errorf("false alarms on steady breathing in streaming mode: %d/%d updates", steadyAlarms, steadyTotal)
	}
}
