package llrp

import (
	"context"
	"net"
	"testing"
	"time"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
)

// testSource emits n reports spaced 10 ms apart in stream time.
func testSource(n int) ReportSource {
	return ReportSourceFunc(func(ctx context.Context, emit func(reader.TagReport) error) error {
		for i := 0; i < n; i++ {
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
		return nil
	})
}

// startServer launches a server on a loopback listener and returns its
// address plus a cleanup func.
func startServer(t *testing.T, cfg ServerConfig) string {
	t.Helper()
	if cfg.NewSource == nil {
		cfg.NewSource = func() ReportSource { return testSource(100) }
	}
	srv, err := NewServer(cfg)
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

// testClient is a Client whose delivery hook feeds reports, a
// test-owned channel in the role a Session's stable channel plays. The
// channel holds 1024 reports, parks the read loop while full, and
// closes once the read loop has ended.
type testClient struct {
	*Client
	reports <-chan reader.TagReport
}

// newTestClient builds a testClient over conn, or, when conn is nil,
// by dialing addr with a 5 s setup bound. A nil m builds private
// instruments.
func newTestClient(addr string, conn net.Conn, m *ClientMetrics) (*testClient, error) {
	ch := make(chan reader.TagReport, 1024)
	deliver := func(r reader.TagReport) bool {
		ch <- r
		return true
	}
	var c *Client
	var err error
	if conn != nil {
		c, err = newClient(conn, m, nil, deliver)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		c, err = dialClient(ctx, addr, m, nil, deliver)
		cancel()
	}
	if err != nil {
		return nil, err
	}
	go func() {
		<-c.done
		close(ch)
	}()
	return &testClient{Client: c, reports: ch}, nil
}

// dialTest dials addr as newTestClient does and closes the client when
// the test ends.
func dialTest(t *testing.T, addr string) *testClient {
	t.Helper()
	c, err := newTestClient(addr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientServerLifecycle(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	c := dialTest(t, addr)

	if err := c.SetReaderConfig(); err != nil {
		t.Fatalf("set config: %v", err)
	}
	if err := c.AddROSpec(ROSpecConfig{ROSpecID: 1, ReportEveryN: 8}); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := c.EnableROSpec(1); err != nil {
		t.Fatalf("enable: %v", err)
	}
	if err := c.StartROSpec(1); err != nil {
		t.Fatalf("start: %v", err)
	}

	var got []reader.TagReport
	timeout := time.After(10 * time.Second)
	for len(got) < 100 {
		select {
		case r, ok := <-c.reports:
			if !ok {
				t.Fatalf("reports closed early after %d (err: %v)", len(got), c.Err())
			}
			got = append(got, r)
		case <-timeout:
			t.Fatalf("timed out with %d/100 reports", len(got))
		}
	}
	// Reports preserve order and content.
	for i, r := range got {
		if r.Timestamp != time.Duration(i)*10*time.Millisecond {
			t.Fatalf("report %d timestamp %v", i, r.Timestamp)
		}
		if r.EPC.UserID() != 1 {
			t.Fatalf("report %d user %x", i, r.EPC.UserID())
		}
	}

	if err := c.StopROSpec(1); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := c.DeleteROSpec(1); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

func TestROSpecStateMachineErrors(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	c := dialTest(t, addr)

	if err := c.StartROSpec(9); err == nil {
		t.Error("start of unknown ROSpec must fail")
	}
	if err := c.EnableROSpec(9); err == nil {
		t.Error("enable of unknown ROSpec must fail")
	}
	if err := c.AddROSpec(ROSpecConfig{ROSpecID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddROSpec(ROSpecConfig{ROSpecID: 2}); err == nil {
		t.Error("duplicate add must fail")
	}
	if err := c.StartROSpec(2); err == nil {
		t.Error("start before enable must fail")
	}
	if err := c.StopROSpec(2); err == nil {
		t.Error("stop of non-running ROSpec must fail")
	}
	if err := c.EnableROSpec(2); err != nil {
		t.Fatal(err)
	}
	if err := c.StartROSpec(2); err != nil {
		t.Fatal(err)
	}
	if err := c.StartROSpec(2); err == nil {
		t.Error("double start must fail")
	}
	if err := c.DeleteROSpec(2); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteROSpec(2); err == nil {
		t.Error("double delete must fail")
	}
}

func TestKeepaliveHandledTransparently(t *testing.T) {
	addr := startServer(t, ServerConfig{KeepaliveEvery: 50 * time.Millisecond})
	c := dialTest(t, addr)
	// Sit through several keepalive periods; the connection must stay
	// healthy because the client acks automatically.
	time.Sleep(300 * time.Millisecond)
	if err := c.SetReaderConfig(); err != nil {
		t.Fatalf("connection unhealthy after keepalives: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("client error: %v", err)
	}
}

func TestAntennaFilteredROSpec(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	c := dialTest(t, addr)
	if err := c.AddROSpec(ROSpecConfig{ROSpecID: 1, AntennaIDs: []uint16{2}, ReportEveryN: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableROSpec(1); err != nil {
		t.Fatal(err)
	}
	if err := c.StartROSpec(1); err != nil {
		t.Fatal(err)
	}
	// The source alternates ports 1 and 2; only port 2 may arrive.
	var got int
	timeout := time.After(5 * time.Second)
	for got < 50 {
		select {
		case r, ok := <-c.reports:
			if !ok {
				t.Fatalf("reports closed early (err %v)", c.Err())
			}
			if r.AntennaPort != 2 {
				t.Fatalf("report from filtered antenna %d", r.AntennaPort)
			}
			got++
		case <-timeout:
			t.Fatalf("timed out with %d/50 filtered reports", got)
		}
	}
}

func TestStopROSpecHaltsStream(t *testing.T) {
	// An endless source; stopping the ROSpec must cancel it.
	endless := func() ReportSource {
		return ReportSourceFunc(func(ctx context.Context, emit func(reader.TagReport) error) error {
			i := 0
			for {
				if err := ctx.Err(); err != nil {
					return err
				}
				r := reader.TagReport{
					EPC:         epc.NewUserTagEPC(1, 1),
					AntennaPort: 1,
					Frequency:   920e6,
					Timestamp:   time.Duration(i) * time.Millisecond,
				}
				if err := emit(r); err != nil {
					return err
				}
				i++
				time.Sleep(time.Millisecond)
			}
		})
	}
	addr := startServer(t, ServerConfig{NewSource: endless})
	c := dialTest(t, addr)
	if err := c.AddROSpec(ROSpecConfig{ROSpecID: 1, ReportEveryN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableROSpec(1); err != nil {
		t.Fatal(err)
	}
	if err := c.StartROSpec(1); err != nil {
		t.Fatal(err)
	}
	// Receive a few reports, then stop.
	for i := 0; i < 5; i++ {
		select {
		case <-c.reports:
		case <-time.After(5 * time.Second):
			t.Fatal("no reports from endless source")
		}
	}
	if err := c.StopROSpec(1); err != nil {
		t.Fatal(err)
	}
	// Drain whatever was in flight; the stream must go quiet.
	deadline := time.After(2 * time.Second)
	quietFor := time.NewTimer(500 * time.Millisecond)
	for {
		select {
		case _, ok := <-c.reports:
			if !ok {
				return // connection wound down; also acceptable
			}
			if !quietFor.Stop() {
				<-quietFor.C
			}
			quietFor.Reset(500 * time.Millisecond)
		case <-quietFor.C:
			return // stream went quiet: stop worked
		case <-deadline:
			t.Fatal("reports kept flowing after StopROSpec")
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	const n = 4
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(id uint32) {
			c, err := newTestClient(addr, nil, nil)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			if err := c.AddROSpec(ROSpecConfig{ROSpecID: id, ReportEveryN: 16}); err != nil {
				errCh <- err
				return
			}
			if err := c.EnableROSpec(id); err != nil {
				errCh <- err
				return
			}
			if err := c.StartROSpec(id); err != nil {
				errCh <- err
				return
			}
			count := 0
			timeout := time.After(10 * time.Second)
			for count < 100 {
				select {
				case _, ok := <-c.reports:
					if !ok {
						errCh <- c.Err()
						return
					}
					count++
				case <-timeout:
					errCh <- context.DeadlineExceeded
					return
				}
			}
			errCh <- nil
		}(uint32(i + 1))
	}
	for i := 0; i < n; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

func TestClientCloseIsClean(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	c, err := newTestClient(addr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err after clean close: %v", err)
	}
}

func TestReaderCapabilities(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	c := dialTest(t, addr)
	caps, err := c.ReaderCapabilities()
	if err != nil {
		t.Fatal(err)
	}
	if caps.AntennaCount != 4 || caps.ChannelCount != 10 || caps.MaxTxPowerDBm != 30 {
		t.Errorf("capabilities = %+v", caps)
	}
	if caps.ModelName == "" {
		t.Error("empty model name")
	}
}

func TestCapabilitiesCodecRoundTrip(t *testing.T) {
	in := Capabilities{ModelName: "x", AntennaCount: 2, ChannelCount: 50, MaxTxPowerDBm: 27}
	got, err := DecodeCapabilities(EncodeCapabilities(in))
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Errorf("round trip %+v != %+v", got, in)
	}
	if _, err := DecodeCapabilities(nil); err == nil {
		t.Error("expected error for empty payload")
	}
}
