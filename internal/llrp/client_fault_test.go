package llrp

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagbreathe/internal/reader"
)

// TestClientCloseConcurrent hammers Close from many goroutines while
// reports stream: every call must return (no deadlock on the read
// loop), the client must still report a clean shutdown, and the
// delivery hook must never run once Close has returned.
func TestClientCloseConcurrent(t *testing.T) {
	addr := startServer(t, ServerConfig{NewSource: func() ReportSource { return testSource(1 << 20) }})
	var closed, late atomic.Bool
	delivered := make(chan struct{}, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	c, err := dialClient(ctx, addr, nil, nil, func(reader.TagReport) bool {
		if closed.Load() {
			late.Store(true)
		}
		select {
		case delivered <- struct{}{}:
		default:
		}
		// A slow consumer keeps frames buffered behind the read loop
		// when Close lands.
		time.Sleep(100 * time.Microsecond)
		return true
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
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
	select {
	case <-delivered: // reports are flowing
	case <-time.After(10 * time.Second):
		t.Fatal("no report delivered before Close")
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Close()
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent Close calls did not all return")
	}
	closed.Store(true)
	if err := c.Err(); err != nil {
		t.Fatalf("Err after clean concurrent close: %v", err)
	}
	// Give a straggling read loop time to show itself.
	time.Sleep(50 * time.Millisecond)
	if late.Load() {
		t.Fatal("report delivered after Close returned")
	}
}

// TestClientErrAfterMidFrameDisconnect injects the nastiest transport
// failure — the peer dies halfway through a frame — and checks Err
// surfaces the truncation instead of masking it as a clean EOF.
func TestClientErrAfterMidFrameDisconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Greet like a reader, then start a report frame declaring 100
		// payload bytes, deliver 10, and vanish.
		_ = WriteMessage(conn, Message{Type: MsgReaderEventNotification, ID: 0})
		var hdr [headerSize]byte
		binary.BigEndian.PutUint16(hdr[0:2], uint16(protocolVersion)<<10|uint16(MsgROAccessReport))
		binary.BigEndian.PutUint32(hdr[2:6], uint32(headerSize+100))
		binary.BigEndian.PutUint32(hdr[6:10], 7)
		_, _ = conn.Write(hdr[:])
		_, _ = conn.Write(make([]byte, 10))
	}()

	c, err := newTestClient(ln.Addr().String(), nil, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// The read loop's end closes the test's report channel; the error
	// is set by then.
	select {
	case _, ok := <-c.reports:
		if ok {
			t.Fatal("decoded a report from a truncated frame")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read loop did not end after mid-frame disconnect")
	}
	err = c.Err()
	if err == nil {
		t.Fatal("Err = nil after mid-frame disconnect; truncation masked as clean close")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Err = %v, want io.ErrUnexpectedEOF", err)
	}
	// The first transport error sticks: closing afterwards must not
	// overwrite it with net.ErrClosed and hide the root cause.
	c.Close()
	if err := c.Err(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Err after Close = %v, want the original truncation", err)
	}
}
