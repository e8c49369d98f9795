package fleet_test

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/epc"
	"tagbreathe/internal/fleet"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/reader"
)

// endlessSource emits reports 10 ms apart in stream time, forever
// (bounded only by the connection's life).
func endlessSource() llrp.ReportSource {
	return llrp.ReportSourceFunc(func(ctx context.Context, emit func(reader.TagReport) error) error {
		for i := 0; ; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			r := reader.TagReport{
				EPC:          epc.NewUserTagEPC(1, uint32(i%3)+1),
				AntennaPort:  1 + i%2,
				ChannelIndex: i % 10,
				Frequency:    920e6,
				Timestamp:    time.Duration(i) * 10 * time.Millisecond,
				Phase:        1.5,
				RSSI:         -50,
			}
			if err := emit(r); err != nil {
				return err
			}
		}
	})
}

// startServer launches a sim reader on loopback and returns its addr.
func startServer(t *testing.T) string {
	t.Helper()
	srv, err := llrp.NewServer(llrp.ServerConfig{
		NewSource: func() llrp.ReportSource { return endlessSource() },
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

// sessionTemplate is a fleet session template tuned for test latencies.
func sessionTemplate() llrp.SessionConfig {
	return llrp.SessionConfig{
		ROSpec:      llrp.ROSpecConfig{ROSpecID: 1, ReportEveryN: 4},
		DialTimeout: 2 * time.Second,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
}

// startFleetTest starts a fleet closed at cleanup; a buffer above zero
// shrinks the merged channel to that many reports.
func startFleetTest(t *testing.T, buffer int, cfg fleet.Config) *fleet.Fleet {
	t.Helper()
	var f *fleet.Fleet
	var err error
	if buffer > 0 {
		f, err = fleet.StartBuffered(context.Background(), cfg, buffer)
	} else {
		f, err = fleet.Start(context.Background(), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// goroutineBaseline lets startup goroutines settle and returns the
// count checkNoLeak waits to get back to.
func goroutineBaseline() int {
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}

// checkNoLeak fails unless the goroutine count returns to baseline.
func checkNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetMergesWithProvenance: two readers through one fleet; every
// merged report names its origin, each origin's sub-stream stays
// timestamp-ordered, and the status view agrees with reality.
func TestFleetMergesWithProvenance(t *testing.T) {
	m := fleet.NewMetrics(nil)
	f := startFleetTest(t, 0, fleet.Config{
		Readers: []fleet.ReaderConfig{
			{Name: "west", Addr: startServer(t)},
			{Name: "east", Addr: startServer(t)},
		},
		Session: sessionTemplate(),
		Metrics: m,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitUp(ctx); err != nil {
		t.Fatalf("WaitUp: %v", err)
	}

	// Drain until both readers have contributed a healthy batch.
	last := map[string]time.Duration{}
	count := map[string]int{}
	deadline := time.After(10 * time.Second)
	for count["east"] < 40 || count["west"] < 40 {
		select {
		case r, ok := <-f.Reports():
			if !ok {
				t.Fatal("merged channel closed mid-test")
			}
			if r.ReaderID != "east" && r.ReaderID != "west" {
				t.Fatalf("report with ReaderID %q, want east or west", r.ReaderID)
			}
			if r.Timestamp < last[r.ReaderID] {
				t.Fatalf("reader %s went backwards: %v after %v", r.ReaderID, r.Timestamp, last[r.ReaderID])
			}
			last[r.ReaderID] = r.Timestamp
			count[r.ReaderID]++
		case <-deadline:
			t.Fatalf("timeout merging (east %d, west %d)", count["east"], count["west"])
		}
	}

	if err := f.Healthy(); err != nil {
		t.Errorf("Healthy: %v", err)
	}
	st := f.Status()
	if len(st) != 2 || st[0].Name != "east" || st[1].Name != "west" {
		t.Fatalf("Status order = %+v, want [east west]", st)
	}
	for _, s := range st {
		if !s.Up {
			t.Errorf("reader %s not up: state %s err %s", s.Name, s.State, s.Err)
		}
		if s.Reports == 0 {
			t.Errorf("reader %s: Status.Reports = 0 after merging", s.Name)
		}
	}
	if v := m.Readers.Value(); v != 2 {
		t.Errorf("fleet readers gauge = %v, want 2", v)
	}
	if v := m.ReaderReports.With("east").Value(); v == 0 {
		t.Error("east reports counter = 0")
	}

	f.Close()
	for {
		if _, ok := <-f.Reports(); !ok {
			break
		}
	}
}

// TestFleetLifecycle runs two readers while reports flow and verifies
// that Close ends the merged stream and no goroutine outlives it.
func TestFleetLifecycle(t *testing.T) {
	addrA, addrB := startServer(t), startServer(t)
	baseline := goroutineBaseline()

	f := startFleetTest(t, 0, fleet.Config{
		Readers: []fleet.ReaderConfig{{Name: "a", Addr: addrA}, {Name: "b", Addr: addrB}},
		Session: sessionTemplate(),
	})

	// A background drain that tallies per-reader arrivals; the test
	// body inspects the tally through seen().
	var mu sync.Mutex
	counts := map[string]int{}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for r := range f.Reports() {
			mu.Lock()
			counts[r.ReaderID]++
			mu.Unlock()
		}
	}()
	seen := func(name string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[name]
	}
	deadline := time.Now().Add(10 * time.Second)
	for seen("a") <= 10 || seen("b") <= 10 {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for both readers (a %d, b %d)", seen("a"), seen("b"))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Teardown: channel closes, drain exits, goroutines return to
	// baseline.
	f.Close()
	<-drained
	checkNoLeak(t, baseline)
}

// TestFleetStartValidation: Start rejects an empty reader set, a reader
// without a name or an addr, and a duplicate name, and a failed Start
// leaves no goroutine behind.
func TestFleetStartValidation(t *testing.T) {
	addr := startServer(t)
	baseline := goroutineBaseline()
	for name, readers := range map[string][]fleet.ReaderConfig{
		"no readers":     nil,
		"empty name":     {{Name: "a", Addr: addr}, {Name: "", Addr: addr}},
		"empty addr":     {{Name: "a", Addr: addr}, {Name: "b", Addr: ""}},
		"duplicate name": {{Name: "a", Addr: addr}, {Name: "b", Addr: addr}, {Name: "a", Addr: addr}},
	} {
		f, err := fleet.Start(context.Background(), fleet.Config{Readers: readers, Session: sessionTemplate()})
		if err == nil {
			f.Close()
			t.Errorf("%s: Start accepted %+v", name, readers)
		}
	}
	checkNoLeak(t, baseline)
}

// TestFleetShedsAtFullMergedChannel: with no consumer, the pump must
// shed at the merged channel (counted per reader) instead of wedging,
// and must resume delivery the moment a consumer appears.
func TestFleetShedsAtFullMergedChannel(t *testing.T) {
	m := fleet.NewMetrics(nil)
	f := startFleetTest(t, 4, fleet.Config{
		Readers: []fleet.ReaderConfig{{Name: "solo", Addr: startServer(t)}},
		Session: sessionTemplate(),
		Metrics: m,
	})

	shed := m.ReaderShed.With("solo")
	deadline := time.Now().Add(10 * time.Second)
	for shed.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no shedding with a full merged channel (state %+v)", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The pump must still be live: reports flow as soon as we read.
	got := 0
	deadline = time.Now().Add(10 * time.Second)
	for got < 20 {
		select {
		case r, ok := <-f.Reports():
			if !ok {
				t.Fatal("merged channel closed")
			}
			if r.ReaderID != "solo" {
				t.Fatalf("ReaderID %q, want solo", r.ReaderID)
			}
			got++
		case <-time.After(time.Until(deadline)):
			t.Fatalf("pump wedged after shedding: %d/20 reports", got)
		}
	}
	if st := f.Status(); len(st) != 1 || st[0].Shed == 0 {
		t.Errorf("Status shed accounting = %+v, want Shed > 0", st)
	}
}

// TestFleetQualityAwareShedding: with a vantage classifier configured
// and a stalled consumer, sheds are split by class, the redundant
// vantage (antenna 2) is gated coherently, and the gate reopens —
// both antennas flow again — once the consumer drains the backlog.
func TestFleetQualityAwareShedding(t *testing.T) {
	m := fleet.NewMetrics(nil)
	f := startFleetTest(t, 8, fleet.Config{
		Readers: []fleet.ReaderConfig{{Name: "solo", Addr: startServer(t)}},
		Session: sessionTemplate(),
		Metrics: m,
		ShedClass: func(r reader.TagReport) core.ShedClass {
			if r.AntennaPort == 2 {
				return core.ShedRedundant
			}
			return core.ShedPrimary
		},
	})

	// No consumer: the channel fills, the watermark gates antenna 2,
	// and the full channel eventually sheds primaries too — each
	// counted under its class.
	redundant := m.ReaderShedByClass.With("solo", "redundant")
	deadline := time.Now().Add(10 * time.Second)
	for redundant.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no redundant-class sheds with a full merged channel (state %+v)", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := f.Status()
	if len(st) != 1 || st[0].ShedByClass["redundant"] == 0 {
		t.Fatalf("Status.ShedByClass = %+v, want redundant > 0", st)
	}

	// Resume consumption: the backlog drains past the reopen mark, the
	// gate lifts, and antenna 2 reports reach the merged channel again.
	seen := map[int]bool{}
	deadline = time.Now().Add(10 * time.Second)
	for !seen[1] || !seen[2] {
		select {
		case r, ok := <-f.Reports():
			if !ok {
				t.Fatal("merged channel closed mid-test")
			}
			seen[r.AntennaPort] = true
		case <-time.After(time.Until(deadline)):
			t.Fatalf("gate never reopened: antennas seen = %v", seen)
		}
	}
}

// TestFleetHealthChecks covers the degraded-fleet health surface: a
// down reader named in the fleet error, and the per-reader check shape.
func TestFleetHealthChecks(t *testing.T) {
	// A port with nothing listening: grab one, close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	// The live server must outlive the fleet: t.Cleanup runs LIFO, so
	// it is started before the fleet (its Close waits for the fleet's
	// connection to go away).
	upAddr := startServer(t)

	f := startFleetTest(t, 0, fleet.Config{
		Readers: []fleet.ReaderConfig{{Name: "up", Addr: upAddr}, {Name: "down", Addr: deadAddr}},
		Session: sessionTemplate(),
	})
	waitUp := func(name string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for f.ReaderHealth(name)() != nil {
			if time.Now().After(deadline) {
				t.Fatalf("reader %s never came up: %v", name, f.ReaderHealth(name)())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitUp("up")

	if err := f.Healthy(); err == nil {
		t.Fatal("fleet with a dead reader reported healthy")
	} else if !strings.Contains(err.Error(), "down") {
		t.Errorf("degraded-fleet error does not name the dead reader: %v", err)
	}
	if err := f.ReaderHealth("down")(); err == nil {
		t.Error("dead reader's health check passed")
	}
	if err := f.ReaderHealth("ghost")(); err == nil {
		t.Error("unconfigured reader's health check passed")
	}
}
