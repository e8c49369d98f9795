package llrp

import (
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/decode_golden.txt from the decoder's current output")

// decodeCase is one RO_ACCESS_REPORT payload of the decoder's golden
// corpus.
type decodeCase struct {
	name    string
	payload []byte
}

// goldenReport is a valid report with every field set.
func goldenReport(i int) reader.TagReport {
	return reader.TagReport{
		EPC:          epc.NewUserTagEPC(0xA1B2C3D4E5F60718+uint64(i), uint32(i%3)+1),
		AntennaPort:  1 + i%4,
		ChannelIndex: i % 10,
		Frequency:    units.Hertz(902.75e6 + float64(i%10)*500e3),
		Timestamp:    time.Duration(1_000_003+i*62_500) * time.Microsecond,
		Phase:        units.Radians(float64(i*409%4096) / 4096 * 2 * math.Pi),
		RSSI:         units.DBm(-48.37 - float64(i)/8),
		DopplerHz:    float64(i-5) / 16,
	}
}

// customBody builds a Custom parameter body: vendor ID, then the given
// (subtype, value bytes) fields in order.
func customBody(vendor uint32, fields ...any) []byte {
	b := binary.BigEndian.AppendUint32(nil, vendor)
	for _, f := range fields {
		switch v := f.(type) {
		case uint32:
			b = binary.BigEndian.AppendUint32(b, v)
		case []byte:
			b = append(b, v...)
		default:
			panic(fmt.Sprintf("customBody: %T", f))
		}
	}
	return b
}

// tagData wraps inner parameters in a TagReportData.
func tagData(inner ...[]byte) []byte {
	var b []byte
	for _, p := range inner {
		b = append(b, p...)
	}
	return appendTLV(nil, ParamTagReportData, b)
}

func u16(v uint16) []byte { return binary.BigEndian.AppendUint16(nil, v) }
func u32(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
func u64(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

// rawTLV is a TLV header with a declared length and whatever bytes
// follow, consistent or not.
func rawTLV(t ParamType, declared uint16, body []byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(t))
	b = binary.BigEndian.AppendUint16(b, declared)
	return append(b, body...)
}

func cat(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// decodeCorpus is every shape of TagReportData payload the decoder
// accepts or rejects: valid frames, and one case per malformed class.
func decodeCorpus() []decodeCase {
	epcBytes := func(i int) []byte { e := goldenReport(i).EPC; return e[:] }
	one := EncodeTagReport(goldenReport(0))
	var batch []byte
	for i := 0; i < 5; i++ {
		batch = append(batch, EncodeTagReport(goldenReport(i))...)
	}
	vendor := uint32(vendorImpinj)
	epcP := appendTLV(nil, ParamEPCData, epcBytes(7))
	return []decodeCase{
		// Valid frames.
		{"empty payload", nil},
		{"one report", one},
		{"five reports", batch},
		{"max phase step 4095", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor, uint32(customPhaseAngle), u16(4095))))},
		{"phase step 0 and extreme doppler", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor,
			uint32(customPhaseAngle), u16(0), uint32(customDoppler), u32(0x80000000))))},
		{"phase step 4096 wraps to 0", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor, uint32(customPhaseAngle), u16(4096))))},
		{"phase step 65535 wraps to 4095", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor, uint32(customPhaseAngle), u16(65535))))},
		{"only EPC", tagData(epcP)},
		{"empty TagReportData", tagData()},
		{"PeakRSSI only", tagData(epcP, appendTLV(nil, ParamPeakRSSI, []byte{0xC8}))},
		{"PeakRSSI after custom overrides it", tagData(epcP,
			appendTLV(nil, ParamCustom, customBody(vendor, uint32(customPeakRSSIMilli), u32(uint32(0xFFFFEC78)))),
			appendTLV(nil, ParamPeakRSSI, []byte{0x81}))},
		{"repeated fields keep the last", tagData(epcP,
			appendTLV(nil, ParamAntennaID, u16(1)), appendTLV(nil, ParamAntennaID, u16(65535)),
			appendTLV(nil, ParamChannelIndex, u16(3)), appendTLV(nil, ParamChannelIndex, u16(49)),
			appendTLV(nil, ParamFirstSeenUTC, u64(1)), appendTLV(nil, ParamFirstSeenUTC, u64(1<<62)))},
		{"max channel frequency", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor, uint32(customChannelFreq), u32(0xFFFFFFFF))))},
		{"foreign vendor custom ignored", tagData(epcP, appendTLV(nil, ParamCustom, customBody(9, uint32(77), u16(1))))},
		{"custom vendor only", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor)))},
		{"unknown inner parameter skipped", tagData(epcP, appendTLV(nil, ParamType(999), []byte{1, 2, 3}), appendTLV(nil, ParamAntennaID, u16(2)))},
		{"reserved type bits masked", cat(rawTLV(ParamTagReportData|0xFC00, uint16(4+len(epcP)), nil), epcP)},
		{"other outer parameters skipped", cat(EncodeStatus(StatusSuccess, "x"), one, appendTLV(nil, ParamROSpec, []byte{9}), one)},
		{"zero-length outer parameter", cat(rawTLV(ParamROSpec, 4, nil), one)},

		// Outer TLV walk.
		{"truncated outer header 1", []byte{0x00}},
		{"truncated outer header 3", []byte{0x00, 0xF0, 0x00}},
		{"truncated header after a report", cat(one, []byte{0x00, 0xF0})},
		{"outer length below header", rawTLV(ParamTagReportData, 3, []byte{1, 2})},
		{"outer length overruns payload", rawTLV(ParamTagReportData, 0x40, []byte{1, 2})},
		{"outer overrun after a report", cat(one, rawTLV(ParamROSpec, 9, nil))},

		// Inner TLV walk.
		{"truncated inner header", tagData(epcP, []byte{0x00, 0x01})},
		{"inner length below header", tagData(rawTLV(ParamAntennaID, 2, nil))},
		{"inner length overruns body", tagData(rawTLV(ParamAntennaID, 8, u16(1)))},

		// Field sizes.
		{"short EPCData", tagData(appendTLV(nil, ParamEPCData, []byte{1, 2, 3}))},
		{"long EPCData", tagData(appendTLV(nil, ParamEPCData, make([]byte, 13)))},
		{"bad AntennaID size", tagData(epcP, appendTLV(nil, ParamAntennaID, []byte{1}))},
		{"bad PeakRSSI size", tagData(epcP, appendTLV(nil, ParamPeakRSSI, []byte{1, 2}))},
		{"bad ChannelIndex size", tagData(epcP, appendTLV(nil, ParamChannelIndex, []byte{1, 2, 3}))},
		{"bad FirstSeenUTC size", tagData(epcP, appendTLV(nil, ParamFirstSeenUTC, u32(1)))},

		// Custom parameter.
		{"short custom", tagData(epcP, appendTLV(nil, ParamCustom, []byte{0, 0, 0x65}))},
		{"truncated custom subtype", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor, []byte{0, 0})))},
		{"truncated phase field", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor, uint32(customPhaseAngle), []byte{1})))},
		{"truncated doppler field", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor, uint32(customDoppler), u16(1))))},
		{"truncated channel frequency field", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor, uint32(customChannelFreq), []byte{1, 2, 3})))},
		{"truncated rssi field", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor, uint32(customPeakRSSIMilli))))},
		{"unknown custom subtype", tagData(epcP, appendTLV(nil, ParamCustom, customBody(vendor, uint32(customPhaseAngle), u16(7), uint32(5), u32(0))))},

		// A fault in a later report fails the whole payload.
		{"bad second report", cat(one, tagData(appendTLV(nil, ParamAntennaID, []byte{1, 2, 3})))},
		{"bad report then bad outer header", cat(tagData(appendTLV(nil, ParamEPCData, nil)), []byte{0x01})},
	}
}

// formatDecode renders DecodeTagReports' result for one payload: the
// error text, or every report field, floats as their bits.
func formatDecode(c decodeCase) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\npayload %s\n", c.name, hex.EncodeToString(c.payload))
	got, err := DecodeTagReports(c.payload)
	if err != nil {
		fmt.Fprintf(&b, "error %s\n", err)
		return b.String()
	}
	fmt.Fprintf(&b, "reports %d\n", len(got))
	for _, r := range got {
		fmt.Fprintf(&b, "report epc=%x ant=%d ch=%d ts=%d freq=%016x phase=%016x rssi=%016x doppler=%016x trace=%d reader=%q\n",
			r.EPC[:], r.AntennaPort, r.ChannelIndex, int64(r.Timestamp),
			math.Float64bits(float64(r.Frequency)), math.Float64bits(float64(r.Phase)),
			math.Float64bits(float64(r.RSSI)), math.Float64bits(r.DopplerHz), r.TraceID, r.ReaderID)
	}
	return b.String()
}

// TestDecodeGolden pins DecodeTagReports on the golden corpus: which
// payloads it accepts, every decoded field bit for bit, and the error
// text of every rejected one. Regenerate with -update only when the
// wire format's meaning changes on purpose.
func TestDecodeGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range decodeCorpus() {
		b.WriteString(formatDecode(c))
	}
	got := b.String()
	path := filepath.Join("testdata", "decode_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("golden line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// BenchmarkDecodeTagReports decodes a 32-report RO_ACCESS_REPORT onto a
// reused batch, as the client's read loop does, and reports the cost
// per report.
func BenchmarkDecodeTagReports(b *testing.B) {
	const n = 32
	var payload []byte
	for i := 0; i < n; i++ {
		payload = append(payload, EncodeTagReport(goldenReport(i))...)
	}
	batch := make([]reader.TagReport, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if batch, err = appendTagReports(batch[:0], payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/report")
}
