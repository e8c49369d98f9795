package chaos_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"tagbreathe/internal/chaos"
	"tagbreathe/internal/core"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/sim"
)

// TestChaosStalenessVisibility pins the estimate-freshness SLO to fault
// behaviour: during every injected transport outage the staleness
// signal (MonitorStats.StaleUsers / FreshnessCheck / the stale-users gauge)
// must fire — the monitor is stream-time driven and emits nothing while
// the link is down, so only a wall-clock freshness check can tell an
// operator the estimates on the dashboard are stale — and after the
// session recovers the signal must clear on its own.
func TestChaosStalenessVisibility(t *testing.T) {
	const speed = 60.0 // stream seconds per wall second

	sc := sim.DefaultScenario()
	sc.Duration = 20 * time.Minute
	sc.Seed = 9
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	uid := res.UserIDs[0]

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

	// Geometry: updates land every UpdateEvery of stream time — ~17 ms
	// of wall clock at 60× — so a 150 ms SLO is comfortably fresh in
	// steady state; the ≥500 ms reconnect backoff guarantees every
	// outage blows through it.
	const slo = 150 * time.Millisecond
	sess, err := llrp.StartSession(context.Background(), llrp.SessionConfig{
		Addr:        proxy.Addr(),
		ROSpec:      llrp.ROSpecConfig{ROSpecID: 1, ReportEveryN: 8},
		DialTimeout: 2 * time.Second,
		BackoffMin:  500 * time.Millisecond,
		BackoffMax:  time.Second,
		Watchdog:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	mm := core.NewMonitorMetrics(nil)
	mon := core.NewMonitor(core.MonitorConfig{
		Pipeline:     core.Config{Users: res.UserIDs, Filter: core.FilterFIRStreaming},
		Window:       25 * time.Second,
		UpdateEvery:  time.Second,
		Metrics:      mm,
		StalenessSLO: slo,
	})
	var pumps sync.WaitGroup
	pumps.Add(1)
	go func() {
		defer pumps.Done()
		for r := range sess.Reports() {
			mon.Ingest(r)
		}
		mon.CloseInput()
	}()
	// Keep each user's latest update for the assertions.
	var updMu sync.Mutex
	last := make(map[uint64]core.RateUpdate)
	pumps.Add(1)
	go func() {
		defer pumps.Done()
		for u := range mon.Updates() {
			updMu.Lock()
			last[u.UserID] = u
			updMu.Unlock()
		}
	}()
	lastUpdate := func() (core.RateUpdate, bool) {
		updMu.Lock()
		defer updMu.Unlock()
		u, ok := last[uid]
		return u, ok
	}
	defer func() {
		sess.Close()
		pumps.Wait()
		mon.Stop()
	}()

	check := mon.FreshnessCheck()
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

	// Healthy baseline: an update exists and the check passes.
	waitFor("first update", 30*time.Second, func() bool {
		_, ok := lastUpdate()
		return ok
	})
	waitFor("fresh baseline", 10*time.Second, func() bool { return check() == nil })

	const cycles = 4
	for cycle := 1; cycle <= cycles; cycle++ {
		faultStream := src.StreamNow()
		proxy.Disconnect()

		// The SLO must fire during the outage, visibly on every surface:
		// the health check errors, the gauge counts the stale user, and
		// the oldest-age gauge exceeds the SLO. All three are refreshed
		// by the same staleness pass, so sample them in one poll.
		waitFor(fmt.Sprintf("staleness SLO firing (cycle %d)", cycle), 15*time.Second, func() bool {
			return check() != nil &&
				mm.StaleUsers.Value() >= 1 &&
				mm.OldestUpdateAge.Value() > slo.Seconds()
		})

		// After the session recovers, updates resume past the gap and
		// the signal clears without intervention.
		waitFor("reconnect", 20*time.Second, func() bool {
			return sess.Reconnects() >= uint64(cycle)
		})
		waitFor("staleness clearing", 20*time.Second, func() bool {
			u, ok := lastUpdate()
			return ok && u.Time >= faultStream && check() == nil && mm.StaleUsers.Value() == 0
		})
	}
}
