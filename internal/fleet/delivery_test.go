package fleet_test

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/fleet"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/reader"
)

// TestFleetCloseAccountsEveryDecodedReport closes a fleet mid-stream
// while a slow consumer keeps the merged channel at its shed mark.
// Every report a reader decoded must end up received or shed: once
// Close returns the counts are final, the consumer has seen exactly the
// reports each reader counted received, and received + shed equals
// what the clients decoded.
func TestFleetCloseAccountsEveryDecodedReport(t *testing.T) {
	cm := llrp.NewClientMetrics(nil)
	tmpl := sessionTemplate()
	tmpl.ClientMetrics = cm
	m := fleet.NewMetrics(nil)
	f := startFleetTest(t, 16, fleet.Config{
		Readers: []fleet.ReaderConfig{
			{Name: "east", Addr: startServer(t)},
			{Name: "west", Addr: startServer(t)},
		},
		Session: tmpl,
		Metrics: m,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitUp(ctx); err != nil {
		t.Fatalf("WaitUp: %v", err)
	}

	got := map[string]uint64{}
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for r := range f.Reports() {
			got[r.ReaderID]++
			time.Sleep(50 * time.Microsecond)
		}
	}()

	counts := func(name string) (received, shed uint64) {
		return m.ReaderReports.With(name).Value(), m.ReaderShed.With(name).Value()
	}
	waitFlowing := func(name string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if rcv, shed := counts(name); rcv > 0 && shed > 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("reader %s never both delivered and shed (status %+v)", name, f.Status())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFlowing("east")
	waitFlowing("west")
	f.Close()
	final := f.Status()
	time.Sleep(50 * time.Millisecond)
	if st := f.Status(); !reflect.DeepEqual(st, final) {
		t.Fatalf("counts moved after Close returned: %+v then %+v", final, st)
	}
	<-consumed

	var total uint64
	for _, name := range []string{"east", "west"} {
		rcv, shed := counts(name)
		if got[name] != rcv {
			t.Errorf("consumer saw %d reports from %s, fleet counted %d received", got[name], name, rcv)
		}
		total += rcv + shed
	}
	// The template's client metrics are shared by both readers' clients.
	if decoded := cm.Reports.Value(); total != decoded {
		t.Fatalf("received + shed = %d across readers, clients decoded %d", total, decoded)
	}
}

// TestPipelineGoroutineTopology pins the goroutines a running fleet and
// monitor own: per connected reader, its decode loop and its session
// supervisor (which runs the watchdog); per monitor, ShardWorkers shard
// workers and one collector. Routing runs on the caller's goroutine
// and delivery on the decode goroutine, so nothing else may appear.
func TestPipelineGoroutineTopology(t *testing.T) {
	const workers = 3
	mon := core.NewMonitor(core.MonitorConfig{ShardWorkers: workers})
	tmpl := sessionTemplate()
	tmpl.Watchdog = 5 * time.Second
	f := startFleetTest(t, 0, fleet.Config{
		Readers: []fleet.ReaderConfig{
			{Name: "east", Addr: startServer(t)},
			{Name: "west", Addr: startServer(t)},
		},
		Session: tmpl,
		ShedClass: func(r reader.TagReport) core.ShedClass {
			return mon.VantageClass(r.EPC.UserID(), r.ReaderID, r.AntennaPort)
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitUp(ctx); err != nil {
		t.Fatalf("WaitUp: %v", err)
	}
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for r := range f.Reports() {
			mon.Ingest(r)
		}
	}()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range mon.Updates() {
		}
	}()
	t.Cleanup(func() {
		f.Close()
		<-fed
		mon.Stop()
		<-drained
	})
	deadline := time.Now().Add(10 * time.Second)
	for st := mon.Stats(); st.Processed < 200 || st.Ticks == 0; st = mon.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never flowed: %d processed, %d ticks", st.Processed, st.Ticks)
		}
		time.Sleep(time.Millisecond)
	}

	want := map[string]int{
		"llrp.(*Client).readLoop":     2,
		"llrp.(*Session).run":         2,
		"core.(*Monitor).workerLoop":  workers,
		"core.(*Monitor).collectLoop": 1,
	}
	got, dump := pipelineGoroutines()
	for fn, n := range want {
		if got[fn] != n {
			t.Errorf("%d goroutines running %s, want %d", got[fn], fn, n)
		}
	}
	for fn, n := range got {
		if _, ok := want[fn]; !ok {
			t.Errorf("%d unexpected pipeline goroutines running %s", n, fn)
		}
	}
	if t.Failed() {
		t.Logf("goroutines:\n%s", dump)
	}
}

// pipelineGoroutines counts live goroutines by entry function, keeping
// those the llrp client and session, the fleet, and the monitor start
// (the reader emulator's own are left out), and returns the full dump
// for failure reports.
func pipelineGoroutines() (map[string]int, string) {
	buf := make([]byte, 1<<20)
	dump := string(buf[:runtime.Stack(buf, true)])
	out := map[string]int{}
	for _, g := range strings.Split(dump, "\n\n") {
		lines := strings.Split(g, "\n")
		for i, line := range lines {
			if !strings.HasPrefix(line, "created by ") || i < 2 {
				continue
			}
			entry := strings.TrimPrefix(lines[i-2], "tagbreathe/internal/")
			if j := strings.LastIndexByte(entry, '('); j > 0 {
				entry = entry[:j]
			}
			switch {
			case strings.HasPrefix(entry, "llrp.(*Server)"), strings.HasPrefix(entry, "llrp.(*serverConn)"):
			case strings.HasPrefix(entry, "llrp."), strings.HasPrefix(entry, "fleet."), strings.HasPrefix(entry, "core."):
				out[entry]++
			}
		}
	}
	return out, dump
}
