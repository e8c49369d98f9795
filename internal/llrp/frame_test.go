package llrp

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
)

// reportBatch encodes n distinct reports as one RO_ACCESS_REPORT
// payload.
func reportBatch(n int) []byte {
	var payload []byte
	for i := 0; i < n; i++ {
		r := makeReport()
		r.EPC = epc.NewUserTagEPC(uint64(i+1), uint32(i%3+1))
		r.ChannelIndex = i % 10
		payload = append(payload, EncodeTagReport(r)...)
	}
	return payload
}

// loopReader serves the same bytes over and over.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// TestClientReadFrameAllocs pins the read loop's steady state: once the
// first frame has sized the frame buffer and the report batch, a
// 32-report frame is read, decoded and delivered without allocating.
func TestClientReadFrameAllocs(t *testing.T) {
	frame := encodeFrame(t, Message{Type: MsgROAccessReport, ID: 1, Payload: reportBatch(32)})
	delivered := 0
	c := &Client{
		in:      bufio.NewReaderSize(&loopReader{b: frame}, inboundBuffer),
		metrics: NewClientMetrics(nil),
		deliver: func(batch []reader.TagReport) bool { delivered += len(batch); return true },
	}
	if err := c.readFrame(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.readFrame(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("read loop allocates %.2f times per frame after the first, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call to its 200.
	if want := 32 * 202; delivered != want {
		t.Errorf("delivered %d reports, want %d", delivered, want)
	}
}

// TestClientResponseKeepsPayloadPastReports sends a report frame, a
// response and, at once, another report frame. The first frame grows
// the read loop's buffer, so the response and the second frame are
// read into the same bytes; the waiter must still hold the response's
// own payload.
func TestClientResponseKeepsPayloadPastReports(t *testing.T) {
	host, rdr := net.Pipe()
	defer rdr.Close()
	const desc = "configured, and this description outlives the next frame"
	go func() {
		_ = WriteMessage(rdr, Message{Type: MsgReaderEventNotification})
		req, err := ReadMessage(rdr)
		if err != nil {
			return
		}
		_ = WriteMessage(rdr, Message{Type: MsgROAccessReport, ID: req.ID + 1, Payload: reportBatch(4)})
		_ = WriteMessage(rdr, Message{Type: MsgSetReaderConfigResponse, ID: req.ID, Payload: EncodeStatus(StatusSuccess, desc)})
		_ = WriteMessage(rdr, Message{Type: MsgROAccessReport, ID: req.ID + 2, Payload: reportBatch(4)})
		_, _ = io.Copy(io.Discard, rdr) // take the client's farewell
	}()
	c, err := newTestClient("", host, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.request(MsgSetReaderConfig, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Eight reports delivered means the second report frame has been
	// read over the response's buffer.
	for i := 0; i < 8; i++ {
		select {
		case <-c.reports:
		case <-time.After(5 * time.Second):
			t.Fatalf("report %d never arrived", i)
		}
	}
	code, got, err := DecodeStatus(resp.Payload)
	if err != nil || code != StatusSuccess || got != desc {
		t.Fatalf("response after a report frame decodes to (%v, %q, %v), want (Success, %q, nil)", code, got, err, desc)
	}
}

// TestReadMessageHeaderErrors pins readMessage to io.ReadFull's
// end-of-stream contract: nothing read is io.EOF, a partial header
// io.ErrUnexpectedEOF.
func TestReadMessageHeaderErrors(t *testing.T) {
	frame := encodeFrame(t, Message{Type: MsgKeepalive, ID: 3})
	for _, tc := range []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "EOF"},
		{"partial header", frame[:4], "unexpected EOF"},
	} {
		if _, err := ReadMessage(bytes.NewReader(tc.in)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.name, err, tc.want)
		}
	}
}
