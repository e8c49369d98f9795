package llrp

import (
	"strings"
	"testing"
	"time"

	"tagbreathe/internal/chaos"
	"tagbreathe/internal/obs"
)

// TestMetricsRoundtrip runs a full client/server session with both
// sides instrumented into one registry and checks the protocol totals
// agree with each other and with what the session actually did.
func TestMetricsRoundtrip(t *testing.T) {
	reg := obs.NewRegistry()
	sm := NewServerMetrics(reg)
	addr := startServer(t, ServerConfig{Metrics: sm})

	cm := NewClientMetrics(reg)
	c, err := newTestClient(addr, nil, cm)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.SetReaderConfig(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddROSpec(ROSpecConfig{ROSpecID: 1, ReportEveryN: 8}); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableROSpec(1); err != nil {
		t.Fatal(err)
	}
	if err := c.StartROSpec(1); err != nil {
		t.Fatal(err)
	}
	var got int
	timeout := time.After(10 * time.Second)
	for got < 100 {
		select {
		case _, ok := <-c.reports:
			if !ok {
				t.Fatalf("reports closed early after %d (err: %v)", got, c.Err())
			}
			got++
		case <-timeout:
			t.Fatalf("timed out with %d/100 reports", got)
		}
	}

	if v := sm.Connections.Value(); v != 1 {
		t.Errorf("server connections = %d, want 1", v)
	}
	if v := sm.ActiveConnections.Value(); v != 1 {
		t.Errorf("server active connections = %v, want 1", v)
	}
	if v := sm.ReportsStreamed.Value(); v != 100 {
		t.Errorf("server reports streamed = %d, want 100", v)
	}
	if v := cm.Reports.Value(); v != 100 {
		t.Errorf("client reports = %d, want 100", v)
	}

	// Both sides counted the same request/response traffic by type.
	for _, typ := range []MessageType{
		MsgSetReaderConfig, MsgAddROSpec, MsgEnableROSpec, MsgStartROSpec,
	} {
		if v := cm.Requests.With(typ.String()).Value(); v != 1 {
			t.Errorf("client requests %v = %d, want 1", typ, v)
		}
		if v := sm.MessagesIn.With(typ.String()).Value(); v != 1 {
			t.Errorf("server messages in %v = %d, want 1", typ, v)
		}
	}
	if sm.SendQueueHighWater.Value() < 1 {
		t.Errorf("send queue high water = %v, want >= 1", sm.SendQueueHighWater.Value())
	}
	if v := sm.Errors.With("protocol").Value(); v != 0 {
		t.Errorf("protocol errors = %d on a clean session", v)
	}
	if v := cm.Errors.With("decode").Value(); v != 0 {
		t.Errorf("client decode errors = %d on a clean session", v)
	}

	// The exposition surface carries both components' families.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tagbreathe_llrp_server_connections_total 1",
		"tagbreathe_llrp_server_reports_streamed_total 100",
		"tagbreathe_llrp_client_reports_total 100",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Closing the session settles the active-connection gauge.
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for sm.ActiveConnections.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("active connections = %v after close", sm.ActiveConnections.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientMetricsCountKeepalives verifies the keepalive counter
// against a server configured to ping aggressively.
func TestClientMetricsCountKeepalives(t *testing.T) {
	reg := obs.NewRegistry()
	addr := startServer(t, ServerConfig{KeepaliveEvery: 50 * time.Millisecond})
	cm := NewClientMetrics(reg)
	c, err := newTestClient(addr, nil, cm)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for cm.Keepalives.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("keepalives = %d, want >= 2", cm.Keepalives.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionReportsBufferGauges stalls the consumer so the stable
// report channel backs up, and checks the occupancy gauges register
// the depth at forward time.
func TestSessionReportsBufferGauges(t *testing.T) {
	reg := obs.NewRegistry()
	addr := startServer(t, ServerConfig{NewSource: func() ReportSource { return testSource(1 << 20) }})
	cfg := fastSessionConfig(addr)
	cfg.Metrics = NewSessionMetrics(reg)
	s := startSessionTest(t, cfg)

	// Nobody receives: with reports flowing, the channel depth climbs
	// and every forward samples it into the gauges.
	deadline := time.Now().Add(10 * time.Second)
	for cfg.Metrics.ReportsBufferHighWater.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("reports buffer high water = %v, want >= 2 (state %v, err %v)",
				cfg.Metrics.ReportsBufferHighWater.Value(), s.State(), s.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// High water dominates the last sampled occupancy (the two updates
	// are not atomic together, so allow the pair a moment to settle).
	cur := cfg.Metrics.ReportsBuffer.Value()
	for cfg.Metrics.ReportsBufferHighWater.Value() < cur {
		if time.Now().After(deadline) {
			t.Fatalf("high water %v below sampled occupancy %v",
				cfg.Metrics.ReportsBufferHighWater.Value(), cur)
		}
		time.Sleep(time.Millisecond)
	}

	// The stream still works end to end behind the instrumentation.
	recvReports(t, s, 5)
	s.Close()
}

// TestSessionMetricsExposition runs a session through a real
// disconnect cycle with instruments in a registry and checks every
// session family lands on the exposition surface with sane values.
func TestSessionMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	addr := startServer(t, ServerConfig{NewSource: func() ReportSource { return testSource(1 << 20) }})
	p, err := chaos.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	cfg := fastSessionConfig(p.Addr())
	cfg.Metrics = NewSessionMetrics(reg)
	cfg.ClientMetrics = NewClientMetrics(reg)
	s := startSessionTest(t, cfg)
	recvReports(t, s, 10)

	p.Disconnect()
	deadline := time.Now().Add(10 * time.Second)
	for s.Reconnects() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect (state %v, err %v)", s.State(), s.Err())
		}
		select {
		case <-s.Reports():
		case <-time.After(5 * time.Millisecond):
		}
	}
	recvReports(t, s, 10)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp := sb.String()
	for _, want := range []string{
		"tagbreathe_llrp_session_reconnects_total 1",
		"tagbreathe_llrp_session_state 1", // back up after the cycle
		"tagbreathe_llrp_session_outage_seconds_count 1",
		"tagbreathe_llrp_session_outage_seconds_bucket",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if v := cfg.Metrics.OutageSeconds.Count(); v != 1 {
		t.Errorf("outage observations = %d, want 1", v)
	}

	s.Close()
	if v := cfg.Metrics.State.Value(); v != float64(SessionClosed) {
		t.Errorf("state gauge = %v after Close, want %v", v, float64(SessionClosed))
	}
}
