package core_test

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sim"
)

// scalePoint is what one TestMonitorScale run measured.
type scalePoint struct {
	reports, updates   int
	processed, dropped uint64
	heap               uint64 // live heap the monitor added, after GC
	goroutines         int    // whole process, at steady state
	traces             uint64 // completed end-to-end traces
	e2eP50, e2eP99     float64
}

// TestMonitorScale is the monitor's scale gate at 1k users (and, outside
// -short, 10k): 20 s of sim.Synth load (1 tag per user at 2 Hz, 10 s
// window, 5 s updates) through one monitor under OverloadBlock must be
// lossless and emit updates; the live heap it adds must stay within
// budget per user and grow with the user count; the goroutine count
// must stay O(workers), not O(users) — the invariant the worker pool
// exists for; and sampled traces must complete with ordered end-to-end
// quantiles, served on /debug/traces while ingest is still running.
func TestMonitorScale(t *testing.T) {
	// Budget per user: an engine's state runs a few KB (differencer,
	// fused-bin ring, filter, antenna stats); 64 KB leaves headroom for
	// allocator slack without masking a structural regression (a
	// goroutine and a queue per user cost ~30 KB alone).
	const bytesPerUserBudget = 64 << 10

	counts := []int{1000}
	if !testing.Short() {
		counts = append(counts, 10000)
	}
	var prevHeap uint64
	for _, users := range counts {
		p := runScalePoint(t, users)
		if p.dropped != 0 || p.processed != uint64(p.reports) {
			t.Errorf("%d users: processed %d + dropped %d of %d reports under OverloadBlock",
				users, p.processed, p.dropped, p.reports)
		}
		if p.updates == 0 {
			t.Errorf("%d users: no rate updates emitted", users)
		}
		if per := p.heap / uint64(users); per > bytesPerUserBudget {
			t.Errorf("%d users: %d bytes/user exceeds the %d-byte budget", users, per, bytesPerUserBudget)
		}
		if p.heap <= prevHeap {
			t.Errorf("%d users: heap %d not above the previous count's %d (it must grow with users)",
				users, p.heap, prevHeap)
		}
		prevHeap = p.heap
		if limit := 4*runtime.GOMAXPROCS(0) + 32; p.goroutines > limit {
			t.Errorf("%d users: %d goroutines at steady state, want ≤ %d (worker-pool invariant)",
				users, p.goroutines, limit)
		}
		if p.traces == 0 {
			t.Errorf("%d users: no traces completed", users)
		}
		if p.e2eP50 <= 0 || p.e2eP99 < p.e2eP50 {
			t.Errorf("%d users: malformed e2e quantiles p50=%gs p99=%gs", users, p.e2eP50, p.e2eP99)
		}
		t.Logf("users=%d: %d B/user, %d goroutines, %d traces, e2e p50/p99 %.3f/%.3f s",
			users, p.heap/uint64(users), p.goroutines, p.traces, p.e2eP50, p.e2eP99)
	}
}

// runScalePoint drives one user count through a traced monitor whose
// tracer a DebugServer serves. Past the first update it pauses ingest
// until a trace completes and checks that /debug/traces serves it,
// then ingests the rest, settles, and measures.
func runScalePoint(t *testing.T, users int) scalePoint {
	t.Helper()
	const stream = 20 * time.Second
	syn, err := sim.NewSynth(sim.SynthConfig{Users: users, TagsPerUser: 1, PerTagHz: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// About ten sampled reports per 5 s update at any user count:
	// well inside every worker's open-trace bound and the ring.
	tracer := obs.NewTracer(nil, obs.TracerConfig{SampleEvery: users, RingSize: 4096})
	dbg, err := obs.ServeDebug("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	dbg.SetTracer(tracer)
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	// The generator, tracer and server are harness cost: the baseline
	// is taken after them, so the heap delta is the monitor's own.
	baseline := liveHeap()
	mm := core.NewMonitorMetrics(nil)
	m := core.NewMonitor(core.MonitorConfig{
		Window:      10 * time.Second,
		UpdateEvery: 5 * time.Second,
		Metrics:     mm,
		Tracer:      tracer,
	})
	counted := make(chan int, 1)
	go func() {
		n := 0
		for range m.Updates() {
			n++
		}
		counted <- n
	}()
	defer m.Stop()

	steps := syn.Steps(stream)
	total := steps * syn.ReportsPerStep()
	buf := make([]reader.TagReport, 0, syn.ReportsPerStep())
	probed := false
	for k := 0; k < steps; k++ {
		buf = syn.Next(buf[:0])
		for _, r := range buf {
			m.Ingest(r)
		}
		if !probed && buf[len(buf)-1].Timestamp > 12*time.Second {
			probed = true
			awaitTraceServed(t, client, dbg.Addr(), tracer)
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	for mm.Processed.Value()+mm.Dropped.Value() < uint64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("%d users: %d of %d reports unaccounted after settle", users,
				uint64(total)-mm.Processed.Value()-mm.Dropped.Value(), total)
		}
		time.Sleep(500 * time.Microsecond)
	}
	// Steady state: every engine live, the queues drained, the workers
	// parked on their queues.
	client.CloseIdleConnections()
	p := scalePoint{reports: total, goroutines: runtime.NumGoroutine()}
	if h := liveHeap(); h > baseline {
		p.heap = h - baseline
	}
	m.CloseInput()
	p.updates = <-counted
	st := m.Stats()
	p.processed, p.dropped = st.Processed, st.Dropped
	p.traces = tracer.Completed()
	p.e2eP50 = tracer.EndToEnd().Quantile(0.50)
	p.e2eP99 = tracer.EndToEnd().Quantile(0.99)
	return p
}

// awaitTraceServed waits for the tracer's first completed trace and
// checks that /debug/traces serves it as an exemplar with stages.
func awaitTraceServed(t *testing.T, client *http.Client, addr string, tracer *obs.Tracer) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for tracer.Completed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no trace completed past the first update")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := client.Get("http://" + addr + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"stages"`) {
		t.Fatalf("/debug/traces serves no completed exemplar mid-ingest: %s", body)
	}
}

// liveHeap forces a collection and returns the live heap size.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
