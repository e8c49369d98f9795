package chaos_test

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"tagbreathe/internal/chaos"
	"tagbreathe/internal/core"
	"tagbreathe/internal/fleet"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/sim"
)

// startPacedServer launches an llrpsim-style server replaying src.
func startPacedServer(t *testing.T, src llrp.ReportSource) string {
	t.Helper()
	srv, err := llrp.NewServer(llrp.ServerConfig{
		NewSource:      func() llrp.ReportSource { return src },
		KeepaliveEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

// TestChaosFleetOneOfTwoReadersDies is the fleet acceptance chaos run:
// two readers covering the same user feed one monitor through the
// fleet gateway; the reader the selection prefers ("alpha", first in
// tie-break order) is killed and revived repeatedly behind a fault
// proxy. Through every outage the merged estimate must keep updating
// within ±2.5 bpm of ground truth — the §IV-D.3 (reader, antenna)
// selection fails over to the surviving reader's warm vantage — and
// alpha's session must re-establish each time. At the end, no
// goroutine may outlive the fleet.
func TestChaosFleetOneOfTwoReadersDies(t *testing.T) {
	const speed = 60.0 // stream seconds per wall second

	sc := sim.DefaultScenario()
	sc.Duration = 30 * time.Minute
	sc.Seed = 9
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	uid := res.UserIDs[0]
	truth := res.TrueRateBPM[uid]

	// Two independent replays of the same ward: each reader sees the
	// same scene on its own paced clock, so their report interleaving
	// carries the cross-reader arrival jitter a real fleet produces.
	srcA := newPacedSource(res.Reports, speed)
	srcB := newPacedSource(res.Reports, speed)
	addrA := startPacedServer(t, srcA)
	addrB := startPacedServer(t, srcB)

	proxy, err := chaos.NewProxy(addrA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	time.Sleep(50 * time.Millisecond) // let transient startup goroutines settle
	baseline := runtime.NumGoroutine()

	f, err := fleet.Start(context.Background(), fleet.Config{
		Readers: []fleet.ReaderConfig{
			{Name: "alpha", Addr: proxy.Addr()}, // tie-break winner, behind the fault proxy
			{Name: "bravo", Addr: addrB},
		},
		Session: llrp.SessionConfig{
			ROSpec:      llrp.ROSpecConfig{ROSpecID: 1, ReportEveryN: 8},
			DialTimeout: 2 * time.Second,
			BackoffMin:  5 * time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
			Watchdog:    300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	mon := core.NewMonitor(core.MonitorConfig{
		Pipeline:    core.Config{Users: res.UserIDs, Filter: core.FilterFIRStreaming},
		Window:      25 * time.Second,
		UpdateEvery: time.Second,
	})
	var pumps sync.WaitGroup
	pumps.Add(1)
	go func() {
		defer pumps.Done()
		for r := range f.Reports() {
			mon.Ingest(r)
		}
		mon.CloseInput()
	}()
	var updMu sync.Mutex
	updates := 0
	badRate := 0   // post-warmup updates outside the physiological band
	badReader := 0 // updates not attributed to a fleet reader
	warm := false
	last := make(map[uint64]core.RateUpdate) // each user's latest update
	pumps.Add(1)
	go func() {
		defer pumps.Done()
		for u := range mon.Updates() {
			updMu.Lock()
			updates++
			last[u.UserID] = u
			// Transition windows (fault onset, vantage switch) may wobble
			// before the selection settles on the surviving reader, so the
			// continuous bound is the plausible breathing band; the ±2.5
			// bpm acceptance is enforced at the post-fault and cooldown
			// checkpoints below.
			if warm && (u.RateBPM < 4 || u.RateBPM > 40) {
				badRate++
			}
			if u.ReaderID != "alpha" && u.ReaderID != "bravo" {
				badReader++
			}
			updMu.Unlock()
		}
	}()

	alphaReconnects := func() uint64 {
		for _, s := range f.Status() {
			if s.Name == "alpha" {
				return s.Reconnects
			}
		}
		return 0
	}
	waitFor := func(what string, timeout time.Duration, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for !ok() {
			if srcA.Exhausted() || srcB.Exhausted() {
				t.Fatalf("trace exhausted while waiting for %s — lengthen sc.Duration", what)
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s (fleet %+v, stream %v)", what, f.Status(), srcB.StreamNow())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	lastUpdate := func() (core.RateUpdate, bool) {
		updMu.Lock()
		defer updMu.Unlock()
		u, ok := last[uid]
		return u, ok
	}

	// Warm baseline: both readers up, the estimate locked onto truth,
	// and the selection crediting alpha (tie-break on equal streams).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitUp(ctx); err != nil {
		t.Fatalf("WaitUp: %v", err)
	}
	waitFor("warm estimate", 30*time.Second, func() bool {
		u, ok := lastUpdate()
		return ok && u.Reads > 0 && u.RateBPM > truth-2.5 && u.RateBPM < truth+2.5
	})
	if u, _ := lastUpdate(); u.ReaderID != "alpha" && u.ReaderID != "bravo" {
		// Which reader wins is load-dependent (the replays pace
		// independently, so window read counts differ), but the estimate
		// must always name a fleet reader.
		t.Errorf("warm selection credits %q, want a fleet reader", u.ReaderID)
	}
	updMu.Lock()
	warm = true
	updMu.Unlock()

	// Kill alpha three ways. The 700 ms stall is ~42 s of stream time —
	// longer than the analysis window, so the selection must genuinely
	// fail over to bravo's vantage, not coast on alpha's stale reads.
	faults := []struct {
		name   string
		inject func()
	}{
		{"disconnect", proxy.Disconnect},
		{"stall past watchdog", func() { proxy.StallFor(700 * time.Millisecond) }},
		{"disconnect again", proxy.Disconnect},
	}
	for cycle, fault := range faults {
		faultStream := srcB.StreamNow()
		fault.inject()

		waitFor(fault.name+": alpha reconnect", 30*time.Second, func() bool {
			return alphaReconnects() >= uint64(cycle+1)
		})
		// Estimates must have kept flowing past the fault — computed
		// from the merged stream while alpha was dark — and be back on
		// truth once the selection settles on a surviving vantage.
		target := faultStream + 10*time.Second
		waitFor(fault.name+": post-fault update within tolerance", 30*time.Second, func() bool {
			u, ok := lastUpdate()
			return ok && u.Time >= target && u.Reads > 0 &&
				u.RateBPM > truth-2.5 && u.RateBPM < truth+2.5
		})
	}

	// Clean cooldown: a full window of fault-free stream, still on
	// truth, and alpha back in the registry's good graces.
	cool := srcB.StreamNow() + 30*time.Second
	waitFor("clean-window recovery", 30*time.Second, func() bool {
		u, ok := lastUpdate()
		return ok && u.Time >= cool
	})
	if err := f.Healthy(); err != nil {
		t.Errorf("fleet not healthy after recovery: %v", err)
	}
	if u, _ := lastUpdate(); u.RateBPM < truth-2.5 || u.RateBPM > truth+2.5 {
		t.Errorf("rate after recovery = %.2f bpm, truth %.2f ± 2.5", u.RateBPM, truth)
	}

	updMu.Lock()
	if updates < len(faults) {
		t.Errorf("only %d updates across the whole run", updates)
	}
	if badRate > 0 {
		t.Errorf("%d/%d post-warmup updates left the plausible breathing band", badRate, updates)
	}
	if badReader > 0 {
		t.Errorf("%d/%d updates lacked fleet provenance", badReader, updates)
	}
	updMu.Unlock()

	// Teardown: fleet close must cascade — sessions, pumps, monitor —
	// and the goroutine count must return to the pre-fleet baseline.
	f.Close()
	pumps.Wait()
	mon.Stop()

	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
