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
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sim"
)

// pacedSource replays a pregenerated simulation trace slaved to the
// wall clock at a fixed speed-up, shared across connections: every
// ROSpec start resumes from the same monotonic cursor instead of
// restarting the trace, the way a real reader's clock keeps running
// while the host is away. Reports that fell due while no connection
// was draining (an outage) are skipped, so downtime becomes a genuine
// stream-time gap — exactly what the pipeline must absorb — and
// timestamps stay monotonic across reconnects.
type pacedSource struct {
	reports []reader.TagReport
	speed   float64       // stream seconds per wall second
	slack   time.Duration // stream-time lateness tolerated before skipping
	start   time.Time     // wall epoch of stream time zero

	mu  sync.Mutex
	pos int
}

func newPacedSource(reports []reader.TagReport, speed float64) *pacedSource {
	return &pacedSource{
		reports: reports,
		speed:   speed,
		slack:   time.Second,
		start:   time.Now(),
	}
}

// StreamNow is the current stream-time position of the shared clock.
func (p *pacedSource) StreamNow() time.Duration {
	return time.Duration(float64(time.Since(p.start)) * p.speed)
}

// Exhausted reports whether the trace ran dry (test sizing error).
func (p *pacedSource) Exhausted() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pos >= len(p.reports)
}

// next claims the next due report; ok=false when the trace is done.
func (p *pacedSource) next() (r reader.TagReport, due time.Time, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	streamNow := time.Duration(float64(time.Since(p.start)) * p.speed)
	for p.pos < len(p.reports) && p.reports[p.pos].Timestamp < streamNow-p.slack {
		p.pos++ // fell due during an outage: a real gap, not a replay
	}
	if p.pos >= len(p.reports) {
		return reader.TagReport{}, time.Time{}, false
	}
	r = p.reports[p.pos]
	p.pos++
	due = p.start.Add(time.Duration(float64(r.Timestamp) / p.speed))
	return r, due, true
}

// Stream implements llrp.ReportSource over the shared cursor.
func (p *pacedSource) Stream(ctx context.Context, emit func(reader.TagReport) error) error {
	for {
		r, due, ok := p.next()
		if !ok {
			return nil
		}
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
		if err := emit(r); err != nil {
			return err
		}
	}
}

// TestChaosSessionMonitorRecovery is the acceptance chaos run: an
// llrpsim-style server streams a breathing scenario through the fault
// proxy into a Session feeding a live Monitor, while a scripted
// schedule injects ≥10 disconnect / mid-frame-cut / corrupt-frame /
// stall cycles. After every fault the session must reconnect and
// re-provision, reports must keep arriving on the same channel, and
// the monitor's per-user estimate must resume past the gap without a
// restart. At the end the estimate must be back near ground truth and
// the goroutine count back at baseline.
func TestChaosSessionMonitorRecovery(t *testing.T) {
	const speed = 60.0 // stream seconds per wall second

	sc := sim.DefaultScenario()
	sc.Duration = 30 * time.Minute // stream-time budget ≈ 30 s of wall
	sc.Seed = 7
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	uid := res.UserIDs[0]
	truth := res.TrueRateBPM[uid]

	src := newPacedSource(res.Reports, speed)
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
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-srvDone
	})

	proxy, err := chaos.NewProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	// Everything below — session, pump, monitor — must be gone again
	// by the end; server and proxy goroutines are part of the baseline.
	time.Sleep(50 * time.Millisecond) // let transient startup goroutines settle
	baseline := runtime.NumGoroutine()

	sessMetrics := llrp.NewSessionMetrics(nil)
	sess, err := llrp.StartSession(context.Background(), llrp.SessionConfig{
		Addr:        proxy.Addr(),
		ROSpec:      llrp.ROSpecConfig{ROSpecID: 1, ReportEveryN: 8},
		DialTimeout: 2 * time.Second,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Watchdog:    300 * time.Millisecond,
		Metrics:     sessMetrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	mon := core.NewMonitor(core.MonitorConfig{
		Pipeline:    core.Config{Users: res.UserIDs, Filter: core.FilterFIRStreaming},
		Window:      25 * time.Second,
		UpdateEvery: time.Second,
	})
	var pumps sync.WaitGroup
	pumps.Add(1)
	go func() {
		// The consumer never re-wires: one loop over one channel for
		// the whole test, across every reconnect.
		defer pumps.Done()
		for r := range sess.Reports() {
			mon.Ingest(r)
		}
		mon.CloseInput()
	}()
	// Drain the update stream, keeping each user's latest update for
	// the assertions, and verify global stream-time ordering holds
	// across reconnects.
	var updMu sync.Mutex
	var updates int
	var orderViolation bool
	last := make(map[uint64]core.RateUpdate)
	pumps.Add(1)
	go func() {
		defer pumps.Done()
		var lastTime time.Duration
		for u := range mon.Updates() {
			updMu.Lock()
			updates++
			last[u.UserID] = u
			if u.Time < lastTime {
				orderViolation = true
			}
			lastTime = u.Time
			updMu.Unlock()
		}
	}()

	waitFor := func(what string, timeout time.Duration, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for !ok() {
			if src.Exhausted() {
				t.Fatalf("trace exhausted while waiting for %s — lengthen sc.Duration", what)
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s (session %v err %v, reconnects %d, stream %v)",
					what, sess.State(), sess.Err(), sess.Reconnects(), src.StreamNow())
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

	// A healthy baseline before the first fault.
	waitFor("first update", 30*time.Second, func() bool {
		u, ok := lastUpdate()
		return ok && u.Reads > 0
	})

	// ≥10 scripted fault cycles, rotating through every fault family.
	faults := []struct {
		name   string
		inject func()
	}{
		{"disconnect", proxy.Disconnect},
		{"mid-frame cut", func() { proxy.CutAfter(5) }},
		{"corrupt frames", func() { proxy.CorruptNext(16) }},
		{"stall past watchdog", func() { proxy.StallFor(time.Second) }},
	}
	const cycles = 12
	for cycle := 1; cycle <= cycles; cycle++ {
		f := faults[(cycle-1)%len(faults)]
		faultStream := src.StreamNow()
		f.inject()

		// The session must notice the dead link and re-establish.
		waitFor(f.name+": reconnect", 20*time.Second, func() bool {
			return sess.Reconnects() >= uint64(cycle)
		})
		// The monitor must produce estimates computed past the gap —
		// per-user state survived, no restart — at a plausible rate.
		target := faultStream + 10*time.Second
		waitFor(f.name+": post-gap update", 20*time.Second, func() bool {
			u, ok := lastUpdate()
			return ok && u.Time >= target && u.Reads > 0 &&
				u.RateBPM > 4 && u.RateBPM < 40
		})
	}

	// Fault-free cooldown: a full window of clean stream, then the
	// estimate must be back at ground truth, not just plausible.
	cool := src.StreamNow() + 30*time.Second
	waitFor("clean-window recovery", 20*time.Second, func() bool {
		u, ok := lastUpdate()
		return ok && u.Time >= cool
	})
	if u, _ := lastUpdate(); u.RateBPM < truth-2.5 || u.RateBPM > truth+2.5 {
		t.Errorf("rate after recovery = %.2f bpm, truth %.2f ± 2.5", u.RateBPM, truth)
	}

	if n := proxy.TotalConns(); n < cycles {
		t.Errorf("proxy saw %d connections across %d fault cycles", n, cycles)
	}
	if n := sessMetrics.ConnectFailures.With("dial").Value() +
		sessMetrics.ConnectFailures.With("provision").Value() +
		sessMetrics.WatchdogTrips.Value() + sess.Reconnects(); n < cycles {
		t.Errorf("fault accounting too low: %d events over %d cycles", n, cycles)
	}
	updMu.Lock()
	if updates < cycles {
		t.Errorf("only %d updates across the whole run", updates)
	}
	if orderViolation {
		t.Error("update stream went backwards in stream time across a reconnect")
	}
	updMu.Unlock()

	// Tear down the consumer stack and verify nothing leaked: the
	// goroutine count must return to the pre-session baseline.
	sess.Close()
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
