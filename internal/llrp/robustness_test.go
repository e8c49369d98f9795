package llrp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"
)

// TestServerSurvivesGarbageBytes throws random bytes at the server; it
// must drop the connection without panicking or wedging, and keep
// serving well-formed clients afterwards.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// Consume the greeting, then write garbage.
		_, _ = ReadMessage(conn)
		garbage := make([]byte, 64+rng.Intn(512))
		rng.Read(garbage)
		_, _ = conn.Write(garbage)
		// The server should close on us (or at least not hang); bound
		// the wait.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 256)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close()
	}
	// A healthy client still works.
	c := dialTest(t, addr)
	if err := c.SetReaderConfig(); err != nil {
		t.Fatalf("server unhealthy after garbage: %v", err)
	}
}

// TestServerSurvivesTruncatedMessages sends a valid header whose
// payload never arrives.
func TestServerSurvivesTruncatedMessages(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = ReadMessage(conn)
	// Header declaring 100 payload bytes, then close after 10.
	var hdr [headerSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], uint16(protocolVersion)<<10|uint16(MsgSetReaderConfig))
	binary.BigEndian.PutUint32(hdr[2:6], uint32(headerSize+100))
	binary.BigEndian.PutUint32(hdr[6:10], 1)
	_, _ = conn.Write(hdr[:])
	_, _ = conn.Write(make([]byte, 10))
	conn.Close()

	// Server must remain responsive.
	c := dialTest(t, addr)
	if err := c.SetReaderConfig(); err != nil {
		t.Fatalf("server unhealthy after truncation: %v", err)
	}
}

// TestServerRejectsOversizedDeclaredLength verifies the allocation
// bound: a header declaring a huge payload must be rejected without
// the server attempting the allocation.
func TestServerRejectsOversizedDeclaredLength(t *testing.T) {
	addr := startServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, _ = ReadMessage(conn)
	var hdr [headerSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], uint16(protocolVersion)<<10|uint16(MsgSetReaderConfig))
	binary.BigEndian.PutUint32(hdr[2:6], 0xFFFFFFF0)
	binary.BigEndian.PutUint32(hdr[6:10], 1)
	_, _ = conn.Write(hdr[:])
	// The server should close the connection promptly.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			return // closed or timed out — either way no crash
		}
	}
}

// TestDecodeTagReportsFuzzish feeds random bytes to the report decoder:
// it must error or succeed, never panic, and never mis-handle lengths.
func TestDecodeTagReportsFuzzish(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(128)
		buf := make([]byte, n)
		rng.Read(buf)
		_, _ = DecodeTagReports(buf) // must not panic
	}
	// Mutated valid payloads.
	valid := EncodeTagReport(makeReport())
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), valid...)
		i := rng.Intn(len(mut))
		mut[i] ^= byte(1 << rng.Intn(8))
		_, _ = DecodeTagReports(mut) // must not panic
	}
}

// TestMessageFramingFuzzish does the same for the frame reader.
func TestMessageFramingFuzzish(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		_, _ = ReadMessage(bytes.NewReader(buf)) // must not panic
	}
}

// TestClientRequestTimeout verifies a wedged peer cannot hang the
// client forever: a server that never answers produces a timeout.
func TestClientRequestTimeout(t *testing.T) {
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
		// Greet, then go silent.
		_ = WriteMessage(conn, Message{Type: MsgReaderEventNotification, Payload: EncodeStatus(StatusSuccess, "hi")})
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := newTestClient(ln.Addr().String(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- c.requestStatus(MsgSetReaderConfig, nil, 500*time.Millisecond) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("request against a silent peer succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request did not time out")
	}
}
