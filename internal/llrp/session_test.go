package llrp

import (
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"tagbreathe/internal/chaos"
	"tagbreathe/internal/reader"
)

// fastSessionConfig is a session tuned for test latencies: millisecond
// backoff so a dozen reconnect cycles finish in well under a second.
func fastSessionConfig(addr string) SessionConfig {
	return SessionConfig{
		Addr:        addr,
		ROSpec:      ROSpecConfig{ROSpecID: 1, ReportEveryN: 4},
		DialTimeout: 2 * time.Second,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		backoffSeed: 42,
	}
}

func startSessionTest(t *testing.T, cfg SessionConfig) *Session {
	t.Helper()
	s, err := StartSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// recvReports drains n reports from the session, failing on timeout.
func recvReports(t *testing.T, s *Session, n int) []reader.TagReport {
	t.Helper()
	out := make([]reader.TagReport, 0, n)
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case r, ok := <-s.Reports():
			if !ok {
				t.Fatalf("Reports closed after %d/%d reports (err: %v)", len(out), n, s.Err())
			}
			out = append(out, r)
		case <-deadline:
			t.Fatalf("timeout waiting for %d reports (got %d, state %v, err %v)",
				n, len(out), s.State(), s.Err())
		}
	}
	return out
}

func TestSessionConnectAndStream(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	s := startSessionTest(t, fastSessionConfig(addr))

	if err := s.WaitUp(context.Background()); err != nil {
		t.Fatalf("WaitUp: %v", err)
	}
	if st := s.State(); st != SessionUp {
		t.Fatalf("state = %v, want up", st)
	}
	recvReports(t, s, 20)
	if n := s.Reconnects(); n != 0 {
		t.Fatalf("Reconnects = %d on a healthy first connection", n)
	}
	if err := s.Healthy(); err != nil {
		t.Fatalf("Healthy: %v", err)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.State(); st != SessionClosed {
		t.Fatalf("state after Close = %v, want closed", st)
	}
	// The stable channel must close, possibly after buffered drain.
	for {
		if _, ok := <-s.Reports(); !ok {
			break
		}
	}
	if err := s.Healthy(); err == nil {
		t.Fatal("Healthy = nil after Close")
	}
}

func TestSessionReconnectsAfterDisconnect(t *testing.T) {
	// An endless source so the stream never runs dry mid-test.
	addr := startServer(t, ServerConfig{NewSource: func() ReportSource { return testSource(1 << 20) }})
	p, err := chaos.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	s := startSessionTest(t, fastSessionConfig(p.Addr()))
	ch := s.Reports() // the one stable channel, grabbed once
	recvReports(t, s, 10)

	for cycle := 1; cycle <= 3; cycle++ {
		p.Disconnect()
		// Keep draining while waiting: detecting the dead link requires
		// the pipeline to move (a full buffer parks the read loop on a
		// send, masking the closed socket until the next read).
		deadline := time.Now().Add(10 * time.Second)
		for s.Reconnects() < uint64(cycle) {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: no reconnect (state %v, err %v)", cycle, s.State(), s.Err())
			}
			select {
			case _, ok := <-ch:
				if !ok {
					t.Fatalf("cycle %d: stable channel closed (err %v)", cycle, s.Err())
				}
			case <-time.After(5 * time.Millisecond):
			}
		}
		// Same channel keeps delivering after the reconnect.
		got := 0
		deliverBy := time.After(10 * time.Second)
		for got < 10 {
			select {
			case _, ok := <-ch:
				if !ok {
					t.Fatalf("cycle %d: stable channel closed post-reconnect (err %v)", cycle, s.Err())
				}
				got++
			case <-deliverBy:
				t.Fatalf("cycle %d: no reports after reconnect (state %v, err %v)",
					cycle, s.State(), s.Err())
			}
		}
	}
	if p.TotalConns() < 4 {
		t.Fatalf("proxy saw %d connections, want ≥ 4", p.TotalConns())
	}
}

func TestSessionWatchdogTripsOnStall(t *testing.T) {
	// Keepalives flow constantly, so only a stalled pipe goes silent.
	addr := startServer(t, ServerConfig{
		NewSource:      func() ReportSource { return testSource(1 << 20) },
		KeepaliveEvery: 20 * time.Millisecond,
	})
	p, err := chaos.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	cfg := fastSessionConfig(p.Addr())
	cfg.Watchdog = 150 * time.Millisecond
	cfg.Metrics = NewSessionMetrics(nil)
	s := startSessionTest(t, cfg)
	recvReports(t, s, 10)

	// Stall well past the watchdog deadline: bytes stop, socket stays
	// up. Keep draining while waiting — in-flight socket buffers feed
	// the read loop for a while after the stall starts, and activity
	// only goes quiet once they empty.
	p.StallFor(5 * time.Second)
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s (state %v, err %v, trips %d, reconnects %d)",
					what, s.State(), s.Err(), cfg.Metrics.WatchdogTrips.Value(), s.Reconnects())
			}
			select {
			case <-s.Reports():
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	waitFor("watchdog trip", func() bool { return cfg.Metrics.WatchdogTrips.Value() >= 1 })
	waitFor("reconnect", func() bool { return s.Reconnects() >= 1 })
	recvReports(t, s, 10) // stream is flowing again on the same channel
}

// sessionGoroutines counts live goroutines running a session's state
// machine or a client's decode loop.
func sessionGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "llrp.(*Session).run") || strings.Contains(g, "llrp.(*Client).readLoop") {
			count++
		}
	}
	return count
}

// TestSessionStalledConsumerUnwinds: a consumer that never reads parks
// the connection's decode goroutine on the full stable channel. The
// watchdog (the parked link reads nothing, so it goes silent) and Close
// must each unwind that send, and Close must leave no session goroutine
// behind. Every report the clients decoded is either drained from the
// channel or counted shed: the parked report and the rest of its frame
// on each link the session ended.
func TestSessionStalledConsumerUnwinds(t *testing.T) {
	addr := startServer(t, ServerConfig{NewSource: func() ReportSource { return testSource(1 << 20) }})
	cfg := fastSessionConfig(addr)
	cfg.reportBuffer = 8
	cfg.Watchdog = 100 * time.Millisecond
	cfg.ClientMetrics = NewClientMetrics(nil)
	cfg.Metrics = NewSessionMetrics(nil)
	s, err := StartSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A reconnect after a trip means the tripped link's parked send
	// returned: the session closes the old client before it redials.
	deadline := time.Now().Add(10 * time.Second)
	for cfg.Metrics.WatchdogTrips.Value() < 1 || s.Reconnects() < 1 {
		if time.Now().After(deadline) {
			s.Close()
			t.Fatalf("stalled link never tripped and reconnected (trips %d, reconnects %d, state %v)",
				cfg.Metrics.WatchdogTrips.Value(), s.Reconnects(), s.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(s.Reports()); n != cfg.reportBuffer {
		t.Fatalf("stable channel holds %d reports, want it full (%d)", n, cfg.reportBuffer)
	}

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a decode goroutine parked in a send")
	}
	if n := sessionGoroutines(); n != 0 {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d session goroutines outlived Close\n%s", n, buf[:runtime.Stack(buf, true)])
	}
	got := 0
	for range s.Reports() {
		got++
	}
	if got != cfg.reportBuffer {
		t.Fatalf("drained %d buffered reports after Close, want %d", got, cfg.reportBuffer)
	}
	decoded, shed := cfg.ClientMetrics.Reports.Value(), cfg.Metrics.ReportsShed.Value()
	if shed == 0 {
		t.Error("no reports counted shed, though two links ended with a send parked")
	}
	if decoded != uint64(got)+shed {
		t.Fatalf("clients decoded %d reports, drained %d + shed %d = %d", decoded, got, shed, uint64(got)+shed)
	}
}

func TestSessionCloseDuringBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	cfg := fastSessionConfig(deadAddr)
	cfg.BackoffMin = 10 * time.Second // park the session in backoff
	cfg.BackoffMax = 10 * time.Second
	s := startSessionTest(t, cfg)

	// Let it fail at least once and settle into the long backoff.
	for s.State() != SessionBackoff {
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a backoff sleep")
	}
}

func TestSessionContextCancelEndsSession(t *testing.T) {
	addr := startServer(t, ServerConfig{NewSource: func() ReportSource { return testSource(1 << 20) }})
	ctx, cancel := context.WithCancel(context.Background())
	s, err := StartSession(ctx, fastSessionConfig(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	recvReports(t, s, 5)

	cancel()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-s.Reports():
			if !ok {
				if st := s.State(); st != SessionClosed {
					t.Fatalf("state = %v after context cancel, want closed", st)
				}
				return
			}
		case <-deadline:
			t.Fatal("Reports still open after context cancel")
		}
	}
}

func TestSessionRequiresAddr(t *testing.T) {
	if _, err := StartSession(context.Background(), SessionConfig{}); err == nil {
		t.Fatal("StartSession accepted an empty Addr")
	}
}

func TestSessionStateString(t *testing.T) {
	want := map[SessionState]string{
		SessionConnecting: "connecting",
		SessionUp:         "up",
		SessionBackoff:    "backoff",
		SessionClosed:     "closed",
	}
	for st, s := range want {
		if st.String() != s {
			t.Fatalf("%d.String() = %q, want %q", st, st.String(), s)
		}
	}
}

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	cfg := SessionConfig{BackoffMin: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond}
	cfg.fillDefaults()
	// A nil jitter source disables randomization, making growth exact.
	var prev time.Duration
	for attempt, want := range map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 20 * time.Millisecond,
		3: 40 * time.Millisecond,
		4: 80 * time.Millisecond,
		9: 80 * time.Millisecond, // capped
	} {
		got := backoffDelay(cfg, attempt, nil)
		if got != want {
			t.Fatalf("attempt %d: delay = %v, want %v", attempt, got, want)
		}
		_ = prev
	}
}

// TestSessionReaderIDStampsReports pins the fleet provenance contract:
// every report forwarded on the stable channel carries the session's
// configured ReaderID.
func TestSessionReaderIDStampsReports(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	cfg := fastSessionConfig(addr)
	cfg.ReaderID = "ward-3-door"
	s := startSessionTest(t, cfg)
	for _, r := range recvReports(t, s, 20) {
		if r.ReaderID != "ward-3-door" {
			t.Fatalf("report ReaderID = %q, want %q", r.ReaderID, "ward-3-door")
		}
	}
}

// TestSessionBlockPolicyShedsNothing pins the backpressure: a slow
// consumer blocks the decode goroutine and never loses a report.
func TestSessionBlockPolicyShedsNothing(t *testing.T) {
	addr := startServer(t, ServerConfig{NewSource: func() ReportSource { return testSource(1 << 20) }})
	cfg := fastSessionConfig(addr)
	cfg.reportBuffer = 8
	m := NewSessionMetrics(nil)
	cfg.Metrics = m
	s := startSessionTest(t, cfg)
	if err := s.WaitUp(context.Background()); err != nil {
		t.Fatalf("WaitUp: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // let the buffer fill and the pump block
	rs := recvReports(t, s, 32)
	for i, r := range rs {
		if want := time.Duration(i) * 10 * time.Millisecond; r.Timestamp != want {
			t.Fatalf("report %d timestamp = %v, want %v (lossless order)", i, r.Timestamp, want)
		}
	}
	if n := m.ReportsShed.Value(); n != 0 {
		t.Fatalf("ReportsShed = %d on a live link, want 0", n)
	}
}
