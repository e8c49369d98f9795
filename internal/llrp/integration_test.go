package llrp

import (
	"context"
	"errors"
	"fmt"
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
	deliver := func(batch []reader.TagReport) bool {
		for _, r := range batch {
			ch <- r
		}
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

// rawConn is a bare LLRP conversation with the emulator: requests go
// out with WriteMessage and replies come back with ReadMessage, with no
// Client in between, so tests reach every ROSpec transition of the
// emulator's state machine, including those the Client never asks for.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	id   uint32
	// reports collects the tag reports of the RO_ACCESS_REPORT frames
	// read so far.
	reports []reader.TagReport
}

// dialRaw connects to addr, reads the reader's greeting, and closes the
// connection when the test ends. Every read and write must finish
// within 10 s.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	hello, err := ReadMessage(conn)
	if err != nil || hello.Type != MsgReaderEventNotification {
		t.Fatalf("greeting: %v, %v", hello.Type, err)
	}
	return &rawConn{t: t, conn: conn}
}

// read reads one message, keeping the reports of a report frame and
// acknowledging a keepalive. A read error (a deadline included) is
// returned.
func (rc *rawConn) read() (Message, error) {
	m, err := ReadMessage(rc.conn)
	if err != nil {
		return m, err
	}
	switch m.Type {
	case MsgROAccessReport:
		batch, err := DecodeTagReports(m.Payload)
		if err != nil {
			rc.t.Fatalf("report frame: %v", err)
		}
		rc.reports = append(rc.reports, batch...)
	case MsgKeepalive:
		if err := WriteMessage(rc.conn, Message{Type: MsgKeepaliveAck, ID: m.ID}); err != nil {
			rc.t.Fatal(err)
		}
	}
	return m, nil
}

// request sends one message and returns the response that carries its
// ID, reading past report frames and keepalives.
func (rc *rawConn) request(typ MessageType, payload []byte) Message {
	rc.t.Helper()
	rc.id++
	if err := WriteMessage(rc.conn, Message{Type: typ, ID: rc.id, Payload: payload}); err != nil {
		rc.t.Fatal(err)
	}
	for {
		m, err := rc.read()
		if err != nil {
			rc.t.Fatalf("awaiting %v response: %v", typ, err)
		}
		if m.ID == rc.id && m.Type != MsgROAccessReport && m.Type != MsgKeepalive {
			return m
		}
	}
}

// status sends one message and returns its response's LLRPStatus as an
// error: nil on success.
func (rc *rawConn) status(typ MessageType, payload []byte) error {
	rc.t.Helper()
	code, desc, err := DecodeStatus(rc.request(typ, payload).Payload)
	if err != nil {
		rc.t.Fatalf("%v response: %v", typ, err)
	}
	if code != StatusSuccess {
		return fmt.Errorf("%v: %v (%s)", typ, code, desc)
	}
	return nil
}

// mustStatus is status for a request that must succeed.
func (rc *rawConn) mustStatus(typ MessageType, payload []byte) {
	rc.t.Helper()
	if err := rc.status(typ, payload); err != nil {
		rc.t.Fatal(err)
	}
}

// awaitReports reads until at least n reports have arrived.
func (rc *rawConn) awaitReports(n int) {
	rc.t.Helper()
	for len(rc.reports) < n {
		if _, err := rc.read(); err != nil {
			rc.t.Fatalf("%d of %d reports: %v", len(rc.reports), n, err)
		}
	}
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

	// The emulator stops and deletes the running ROSpec on request.
	rc := dialRaw(t, addr)
	rc.mustStatus(MsgAddROSpec, EncodeROSpec(ROSpecConfig{ROSpecID: 1, ReportEveryN: 8}))
	rc.mustStatus(MsgEnableROSpec, EncodeROSpecID(1))
	rc.mustStatus(MsgStartROSpec, EncodeROSpecID(1))
	rc.awaitReports(8)
	if err := rc.status(MsgStopROSpec, EncodeROSpecID(1)); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := rc.status(MsgDeleteROSpec, EncodeROSpecID(1)); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

func TestROSpecStateMachineErrors(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	rc := dialRaw(t, addr)

	if err := rc.status(MsgStartROSpec, EncodeROSpecID(9)); err == nil {
		t.Error("start of unknown ROSpec must fail")
	}
	if err := rc.status(MsgEnableROSpec, EncodeROSpecID(9)); err == nil {
		t.Error("enable of unknown ROSpec must fail")
	}
	rc.mustStatus(MsgAddROSpec, EncodeROSpec(ROSpecConfig{ROSpecID: 2}))
	if err := rc.status(MsgAddROSpec, EncodeROSpec(ROSpecConfig{ROSpecID: 2})); err == nil {
		t.Error("duplicate add must fail")
	}
	if err := rc.status(MsgStartROSpec, EncodeROSpecID(2)); err == nil {
		t.Error("start before enable must fail")
	}
	if err := rc.status(MsgStopROSpec, EncodeROSpecID(2)); err == nil {
		t.Error("stop of non-running ROSpec must fail")
	}
	rc.mustStatus(MsgEnableROSpec, EncodeROSpecID(2))
	rc.mustStatus(MsgStartROSpec, EncodeROSpecID(2))
	if err := rc.status(MsgStartROSpec, EncodeROSpecID(2)); err == nil {
		t.Error("double start must fail")
	}
	rc.mustStatus(MsgDeleteROSpec, EncodeROSpecID(2))
	if err := rc.status(MsgDeleteROSpec, EncodeROSpecID(2)); err == nil {
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
	rc := dialRaw(t, addr)
	rc.mustStatus(MsgAddROSpec, EncodeROSpec(ROSpecConfig{ROSpecID: 1, ReportEveryN: 1}))
	rc.mustStatus(MsgEnableROSpec, EncodeROSpecID(1))
	rc.mustStatus(MsgStartROSpec, EncodeROSpecID(1))
	// Receive a few reports, then stop.
	rc.awaitReports(5)
	rc.mustStatus(MsgStopROSpec, EncodeROSpecID(1))
	// Drain whatever was in flight; the stream must go quiet: no
	// message for 500 ms within 2 s.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("reports kept flowing after STOP_ROSPEC")
		}
		if err := rc.conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if _, err := rc.read(); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return // stream went quiet: stop worked
			}
			return // connection wound down; also acceptable
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
	rc := dialRaw(t, addr)
	resp := rc.request(MsgGetReaderCapabilities, nil)
	if resp.Type != MsgGetReaderCapabilitiesResponse {
		t.Fatalf("response type %v", resp.Type)
	}
	if code, desc, err := DecodeStatus(resp.Payload); err != nil || code != StatusSuccess {
		t.Fatalf("status %v (%s), %v", code, desc, err)
	}
	caps, err := DecodeCapabilities(resp.Payload)
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
