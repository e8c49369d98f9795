package llrp

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/units"
)

func TestMessageFramingRoundTrip(t *testing.T) {
	f := func(msgType uint16, id uint32, payload []byte) bool {
		m := Message{Type: MessageType(msgType % 0x400), ID: id, Payload: payload}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return len(payload) > maxMessageSize-headerSize
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		return got.Type == m.Type && got.ID == m.ID && bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteMessageRejectsWideType(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: 0x400}); err == nil {
		t.Error("expected error for 11-bit message type")
	}
}

func TestReadMessageRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgKeepalive, ID: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Version occupies bits 12-10 of the first 16-bit word, i.e. bits
	// 4-2 of the first byte; rewrite it from 1 to 2.
	raw[0] = raw[0]&^0x1C | 2<<2
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Error("expected version error")
	}
}

func TestReadMessageRejectsBadLength(t *testing.T) {
	// Declared length below the header size.
	raw := []byte{0x04, 0x3e, 0, 0, 0, 4, 0, 0, 0, 1}
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Error("expected length error for undersized message")
	}
	// Declared length above the cap.
	raw = []byte{0x04, 0x3e, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 1}
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Error("expected length error for oversized message")
	}
}

func TestReadMessageTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgROAccessReport, Payload: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadMessage(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Error("expected error for truncated payload")
	}
}

func TestStatusRoundTrip(t *testing.T) {
	payload := EncodeStatus(StatusFieldError, "bad ROSpec")
	code, desc, err := DecodeStatus(payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != StatusFieldError || desc != "bad ROSpec" {
		t.Errorf("got (%v, %q)", code, desc)
	}
	if _, _, err := DecodeStatus(nil); err == nil {
		t.Error("expected error for missing status")
	}
}

func makeReport() reader.TagReport {
	return reader.TagReport{
		EPC:          epc.NewUserTagEPC(0xAABBCCDD00000001, 7),
		AntennaPort:  3,
		ChannelIndex: 9,
		Frequency:    924.75 * units.MHz,
		Timestamp:    12345678 * time.Microsecond,
		Phase:        units.Radians(2.1243),
		RSSI:         -52.5,
		DopplerHz:    0.1875,
	}
}

func TestTagReportRoundTrip(t *testing.T) {
	orig := makeReport()
	payload := EncodeTagReport(orig)
	got, err := DecodeTagReports(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d reports, want 1", len(got))
	}
	r := got[0]
	if r.EPC != orig.EPC || r.AntennaPort != orig.AntennaPort ||
		r.ChannelIndex != orig.ChannelIndex || r.Timestamp != orig.Timestamp {
		t.Errorf("identity fields mismatch: %+v vs %+v", r, orig)
	}
	// Phase survives within the 4096-step wire quantization.
	if d := math.Abs(float64(r.Phase - orig.Phase)); d > 2*math.Pi/4096 {
		t.Errorf("phase error %v beyond wire quantization", d)
	}
	// Doppler within 1/16 Hz; RSSI within 0.01 dBm.
	if math.Abs(r.DopplerHz-orig.DopplerHz) > 1.0/16 {
		t.Errorf("doppler %v vs %v", r.DopplerHz, orig.DopplerHz)
	}
	if math.Abs(float64(r.RSSI-orig.RSSI)) > 0.01 {
		t.Errorf("rssi %v vs %v", r.RSSI, orig.RSSI)
	}
	// Frequency to kHz precision.
	if math.Abs(float64(r.Frequency-orig.Frequency)) > 1000 {
		t.Errorf("frequency %v vs %v", r.Frequency, orig.Frequency)
	}
}

func TestTagReportQuickRoundTrip(t *testing.T) {
	f := func(user uint64, tag uint32, ant uint8, ch uint8, ts uint32, phaseRaw uint16, rssiRaw int16, dopRaw int16) bool {
		orig := reader.TagReport{
			EPC:          epc.NewUserTagEPC(user, tag),
			AntennaPort:  int(ant%4) + 1,
			ChannelIndex: int(ch % 50),
			Frequency:    units.Hertz(902e6 + float64(ch%50)*500e3),
			Timestamp:    time.Duration(ts) * time.Microsecond,
			Phase:        units.Radians(float64(phaseRaw%4096) / 4096 * 2 * math.Pi),
			RSSI:         units.DBm(float64(rssiRaw%9000) / 100),
			DopplerHz:    float64(dopRaw) / 16,
		}
		got, err := DecodeTagReports(EncodeTagReport(orig))
		if err != nil || len(got) != 1 {
			return false
		}
		r := got[0]
		return r.EPC == orig.EPC &&
			r.AntennaPort == orig.AntennaPort &&
			r.ChannelIndex == orig.ChannelIndex &&
			r.Timestamp == orig.Timestamp &&
			math.Abs(float64(r.Phase-orig.Phase)) < 2*math.Pi/4096 &&
			math.Abs(float64(r.RSSI-orig.RSSI)) < 0.01 &&
			math.Abs(r.DopplerHz-orig.DopplerHz) < 1.0/16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTagReportBatchDecoding(t *testing.T) {
	var payload []byte
	const n = 5
	for i := 0; i < n; i++ {
		r := makeReport()
		r.Timestamp = time.Duration(i) * time.Second
		payload = append(payload, EncodeTagReport(r)...)
	}
	got, err := DecodeTagReports(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Timestamp != time.Duration(i)*time.Second {
			t.Errorf("report %d timestamp %v", i, r.Timestamp)
		}
	}
}

func TestDecodeTagReportsMalformed(t *testing.T) {
	// Truncated TLV header.
	if _, err := DecodeTagReports([]byte{0x00}); err == nil {
		t.Error("expected error for truncated TLV")
	}
	// TLV length overrunning the buffer.
	bad := []byte{0x00, 240 & 0xFF, 0x00, 0x40, 1, 2}
	if _, err := DecodeTagReports(bad); err == nil {
		t.Error("expected error for overrunning TLV length")
	}
	// Wrong EPC size inside a TagReportData.
	inner := appendTLV(nil, ParamEPCData, []byte{1, 2, 3})
	payload := appendTLV(nil, ParamTagReportData, inner)
	if _, err := DecodeTagReports(payload); err == nil {
		t.Error("expected error for short EPCData")
	}
}

func TestROSpecRoundTrip(t *testing.T) {
	cfg := ROSpecConfig{ROSpecID: 77, ReportEveryN: 32, AntennaIDs: []uint16{1, 3}}
	got, err := DecodeROSpec(EncodeROSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got.ROSpecID != 77 || got.ReportEveryN != 32 || len(got.AntennaIDs) != 2 ||
		got.AntennaIDs[0] != 1 || got.AntennaIDs[1] != 3 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodeROSpec(nil); err == nil {
		t.Error("expected error for empty payload")
	}
}

func TestROSpecIDRoundTrip(t *testing.T) {
	id, err := DecodeROSpecID(EncodeROSpecID(12345))
	if err != nil || id != 12345 {
		t.Errorf("round trip = %v, %v", id, err)
	}
	if _, err := DecodeROSpecID([]byte{1, 2}); err == nil {
		t.Error("expected error for short payload")
	}
}

func TestMessageTypeStrings(t *testing.T) {
	for _, mt := range []MessageType{
		MsgSetReaderConfig, MsgAddROSpec, MsgEnableROSpec, MsgStartROSpec,
		MsgStopROSpec, MsgDeleteROSpec, MsgROAccessReport, MsgKeepalive,
		MsgKeepaliveAck, MsgReaderEventNotification, MsgCloseConnection,
	} {
		if s := mt.String(); strings.HasPrefix(s, "MessageType(") {
			t.Errorf("missing String for %d", uint16(mt))
		}
	}
	if MessageType(999).String() == "" {
		t.Error("unknown type should still print")
	}
	if StatusSuccess.String() != "Success" || StatusCode(999).String() == "" {
		t.Error("status String mismatch")
	}
}

// TestDecodePhaseStaysBelowTwoPi: RFPhaseAngle is 12 bits, so a phase
// field past 4095 steps wraps instead of decoding to 2π or more.
func TestDecodePhaseStaysBelowTwoPi(t *testing.T) {
	for _, c := range []struct {
		steps uint16
		want  float64
	}{{4096, 0}, {65535, 4095.0 / 4096 * 2 * math.Pi}} {
		custom := binary.BigEndian.AppendUint32(nil, vendorImpinj)
		custom = binary.BigEndian.AppendUint32(custom, customPhaseAngle)
		custom = binary.BigEndian.AppendUint16(custom, c.steps)
		got, err := DecodeTagReports(appendTLV(nil, ParamTagReportData, appendTLV(nil, ParamCustom, custom)))
		if err != nil || len(got) != 1 {
			t.Fatalf("steps %d: %v, %d reports", c.steps, err, len(got))
		}
		if p := float64(got[0].Phase); math.Float64bits(p) != math.Float64bits(c.want) || p >= 2*math.Pi {
			t.Errorf("steps %d: phase %v, want %v", c.steps, p, c.want)
		}
	}
}
