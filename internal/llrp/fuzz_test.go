package llrp

import (
	"bytes"
	"testing"
	"time"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
)

// encodeFrame frames a message into bytes for seeding the fuzzer.
func encodeFrame(t testing.TB, m Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeeds builds a corpus of valid frames covering every payload
// codec, plus deliberately damaged variants: truncation, oversized
// declared lengths, and bit flips.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	report := reader.TagReport{
		EPC:          epc.NewUserTagEPC(0xA1B2C3D4E5F60718, 42),
		AntennaPort:  3,
		ChannelIndex: 7,
		Frequency:    915.25e6,
		Timestamp:    1500 * time.Millisecond,
		Phase:        2.5,
		RSSI:         -55.25,
		DopplerHz:    1.5,
	}
	var batch []byte
	batch = append(batch, EncodeTagReport(report)...)
	batch = append(batch, EncodeTagReport(report)...)

	valid := [][]byte{
		encodeFrame(t, Message{Type: MsgReaderEventNotification, ID: 1, Payload: EncodeStatus(StatusSuccess, "connection accepted")}),
		encodeFrame(t, Message{Type: MsgAddROSpecResponse, ID: 2, Payload: EncodeStatus(StatusParameterError, "bad spec")}),
		encodeFrame(t, Message{Type: MsgROAccessReport, ID: 3, Payload: batch}),
		encodeFrame(t, Message{Type: MsgAddROSpec, ID: 4, Payload: EncodeROSpec(ROSpecConfig{ROSpecID: 9, ReportEveryN: 8, AntennaIDs: []uint16{1, 2}})}),
		encodeFrame(t, Message{Type: MsgStartROSpec, ID: 5, Payload: EncodeROSpecID(9)}),
		encodeFrame(t, Message{Type: MsgKeepalive, ID: 6}),
	}

	seeds := append([][]byte(nil), valid...)
	for _, v := range valid {
		// Truncated frame: drop the tail.
		if len(v) > 3 {
			seeds = append(seeds, v[:len(v)*2/3])
		}
		// Oversized declared length: corrupt the length word.
		over := append([]byte(nil), v...)
		over[2], over[3], over[4], over[5] = 0x7F, 0xFF, 0xFF, 0xFF
		seeds = append(seeds, over)
		// Bit flips across header and payload.
		for _, bit := range []int{5, len(v) * 4, len(v)*8 - 3} {
			flipped := append([]byte(nil), v...)
			flipped[bit/8] ^= 1 << (bit % 8)
			seeds = append(seeds, flipped)
		}
	}
	return seeds
}

// FuzzDecodeMessage hammers the wire-format entry points a hostile or
// corrupted peer controls: the frame reader and every payload decoder.
// The invariant is no panic and no unbounded allocation — malformed
// input must come back as an error — any frame that does parse must
// survive a write/read roundtrip unchanged, and decoding tag reports
// onto a reused buffer must equal a fresh decode.
func FuzzDecodeMessage(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return // malformed frames must error, never panic
		}
		// Every payload decoder must tolerate this payload, whatever
		// message type it claims.
		_, _, _ = DecodeStatus(m.Payload)
		fresh, ferr := DecodeTagReports(m.Payload)
		_, _ = DecodeROSpec(m.Payload)
		_, _ = DecodeROSpecID(m.Payload)
		_, _ = DecodeCapabilities(m.Payload)

		// The read loop decodes each frame onto the previous frame's
		// reports: whatever the reused array held must not leak into
		// the result.
		stale := make([]reader.TagReport, 4, 8)
		for i := range stale {
			stale[i] = reader.TagReport{
				EPC: epc.NewUserTagEPC(^uint64(0), 99), AntennaPort: -1, ChannelIndex: -1,
				Frequency: 1, Timestamp: -1, Phase: 9, RSSI: 9, DopplerHz: 9, TraceID: 9, ReaderID: "stale",
			}
		}
		reused, rerr := appendTagReports(stale[:0], m.Payload)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("fresh decode err %v, reused-buffer decode err %v", ferr, rerr)
		}
		if ferr == nil {
			if len(fresh) != len(reused) {
				t.Fatalf("fresh decode gave %d reports, reused-buffer decode %d", len(fresh), len(reused))
			}
			for i := range fresh {
				if fresh[i] != reused[i] {
					t.Fatalf("report %d: fresh %+v, reused-buffer %+v", i, fresh[i], reused[i])
				}
			}
		}

		// Roundtrip: a frame that parsed must re-encode and re-parse
		// to the same message.
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("re-encode of parsed message failed: %v", err)
		}
		back, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("re-read of re-encoded message failed: %v", err)
		}
		if back.Type != m.Type || back.ID != m.ID || !bytes.Equal(back.Payload, m.Payload) {
			t.Fatalf("roundtrip changed message: %+v -> %+v", m, back)
		}
	})
}
