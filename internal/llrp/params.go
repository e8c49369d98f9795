package llrp

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"tagbreathe/internal/reader"
	"tagbreathe/internal/units"
)

// ParamType identifies a TLV parameter (LLRP parameter type space).
type ParamType uint16

// Parameter types used in this subset. Standard types carry their LLRP
// numbers; the low-level radio measurements travel in a Custom
// parameter as on real readers (Impinj exposes phase and Doppler as
// vendor extensions).
const (
	ParamROSpec                ParamType = 177
	ParamLLRPStatus            ParamType = 287
	ParamTagReportData         ParamType = 240
	ParamEPCData               ParamType = 241
	ParamAntennaID             ParamType = 1
	ParamFirstSeenUTC          ParamType = 2
	ParamPeakRSSI              ParamType = 6
	ParamChannelIndex          ParamType = 7
	ParamCustom                ParamType = 1023
	ParamReaderEventData       ParamType = 246
	ParamKeepaliveSpec         ParamType = 220
	ParamROReportSpec          ParamType = 237
	ParamRFTransmitterSettings ParamType = 224
)

// Vendor identifier used inside Custom parameters. 25882 is Impinj's
// IANA private enterprise number, matching what real tooling expects.
const vendorImpinj = 25882

// Custom parameter subtypes for the low-level data.
const (
	customPhaseAngle    = 1
	customDoppler       = 2
	customChannelFreq   = 3
	customPeakRSSIMilli = 4
)

// tlvHeaderSize is the TLV parameter header: 2 bytes type (top 6 bits
// reserved/zero), 2 bytes length including header.
const tlvHeaderSize = 4

// appendTLV appends one TLV parameter to buf.
func appendTLV(buf []byte, t ParamType, body []byte) []byte {
	var hdr [tlvHeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], uint16(t)&0x3FF)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(tlvHeaderSize+len(body)))
	buf = append(buf, hdr[:]...)
	return append(buf, body...)
}

// tlvIter walks a byte slice of concatenated TLV parameters.
type tlvIter struct {
	rest []byte
}

// next returns the next parameter, or ok=false at the end. Malformed
// input yields an error.
func (it *tlvIter) next() (t ParamType, body []byte, ok bool, err error) {
	if len(it.rest) == 0 {
		return 0, nil, false, nil
	}
	if len(it.rest) < tlvHeaderSize {
		return 0, nil, false, truncatedTLV(len(it.rest))
	}
	t = ParamType(binary.BigEndian.Uint16(it.rest[0:2]) & 0x3FF)
	l := int(binary.BigEndian.Uint16(it.rest[2:4]))
	if l < tlvHeaderSize || l > len(it.rest) {
		return 0, nil, false, tlvLengthError(l)
	}
	body = it.rest[tlvHeaderSize:l]
	it.rest = it.rest[l:]
	return t, body, true, nil
}

// truncatedTLV and tlvLengthError are the errors of a malformed TLV
// header, shared by tlvIter and appendTagReports.
func truncatedTLV(n int) error { return fmt.Errorf("llrp: truncated TLV header (%d bytes)", n) }

func tlvLengthError(l int) error { return fmt.Errorf("llrp: TLV length %d out of range", l) }

// EncodeStatus builds an LLRPStatus parameter payload (status code +
// UTF-8 error description), the body of every response message.
func EncodeStatus(code StatusCode, description string) []byte {
	body := make([]byte, 4, 4+len(description))
	binary.BigEndian.PutUint16(body[0:2], uint16(code))
	binary.BigEndian.PutUint16(body[2:4], uint16(len(description)))
	body = append(body, description...)
	return appendTLV(nil, ParamLLRPStatus, body)
}

// DecodeStatus parses a response payload's LLRPStatus.
func DecodeStatus(payload []byte) (StatusCode, string, error) {
	it := tlvIter{rest: payload}
	for {
		t, body, ok, err := it.next()
		if err != nil {
			return 0, "", err
		}
		if !ok {
			return 0, "", fmt.Errorf("llrp: response carries no LLRPStatus")
		}
		if t != ParamLLRPStatus {
			continue
		}
		if len(body) < 4 {
			return 0, "", fmt.Errorf("llrp: short LLRPStatus body")
		}
		code := StatusCode(binary.BigEndian.Uint16(body[0:2]))
		n := int(binary.BigEndian.Uint16(body[2:4]))
		if 4+n > len(body) {
			return 0, "", fmt.Errorf("llrp: LLRPStatus description overruns body")
		}
		return code, string(body[4 : 4+n]), nil
	}
}

// EncodeTagReport serializes one tag report as a TagReportData TLV:
// EPCData, AntennaID, PeakRSSI, ChannelIndex, FirstSeenTimestampUTC,
// and a Custom parameter holding phase, Doppler, and channel frequency
// at full precision.
func EncodeTagReport(r reader.TagReport) []byte {
	var inner []byte

	inner = appendTLV(inner, ParamEPCData, r.EPC[:])

	ant := make([]byte, 2)
	binary.BigEndian.PutUint16(ant, uint16(r.AntennaPort))
	inner = appendTLV(inner, ParamAntennaID, ant)

	// PeakRSSI: LLRP carries a signed dBm byte; full precision goes in
	// the custom parameter below.
	inner = appendTLV(inner, ParamPeakRSSI, []byte{byte(int8(math.Round(float64(r.RSSI))))})

	ch := make([]byte, 2)
	binary.BigEndian.PutUint16(ch, uint16(r.ChannelIndex))
	inner = appendTLV(inner, ParamChannelIndex, ch)

	ts := make([]byte, 8)
	binary.BigEndian.PutUint64(ts, uint64(r.Timestamp.Microseconds()))
	inner = appendTLV(inner, ParamFirstSeenUTC, ts)

	// Custom vendor parameter: phase in 1/4096 turns (the Impinj
	// convention), Doppler in 1/16 Hz, channel frequency in kHz, RSSI
	// in centi-dBm.
	custom := make([]byte, 0, 28)
	custom = binary.BigEndian.AppendUint32(custom, vendorImpinj)
	custom = binary.BigEndian.AppendUint32(custom, customPhaseAngle)
	phaseSteps := uint16(math.Round(float64(r.Phase)/(2*math.Pi)*4096)) % 4096
	custom = binary.BigEndian.AppendUint16(custom, phaseSteps)
	custom = binary.BigEndian.AppendUint32(custom, customDoppler)
	custom = binary.BigEndian.AppendUint32(custom, uint32(int32(math.Round(r.DopplerHz*16))))
	custom = binary.BigEndian.AppendUint32(custom, customChannelFreq)
	custom = binary.BigEndian.AppendUint32(custom, uint32(float64(r.Frequency)/1000))
	custom = binary.BigEndian.AppendUint32(custom, customPeakRSSIMilli)
	custom = binary.BigEndian.AppendUint32(custom, uint32(int32(math.Round(float64(r.RSSI)*100))))
	inner = appendTLV(inner, ParamCustom, custom)

	return appendTLV(nil, ParamTagReportData, inner)
}

// DecodeTagReports parses every TagReportData in an RO_ACCESS_REPORT
// payload back into reader.TagReport values. It counts the reports
// first, so the result is allocated once.
func DecodeTagReports(payload []byte) ([]reader.TagReport, error) {
	n := 0
	it := tlvIter{rest: payload}
	for {
		// A malformed parameter ends the count; the decode below
		// reports the first error in payload order.
		t, _, ok, err := it.next()
		if !ok || err != nil {
			break
		}
		if t == ParamTagReportData {
			n++
		}
	}
	out, err := appendTagReports(make([]reader.TagReport, 0, n), payload)
	if err != nil || len(out) == 0 {
		return nil, err
	}
	return out, nil
}

// appendTagReports decodes every TagReportData in payload onto dst and
// returns the extended slice. A caller that decodes each frame onto
// its previous result[:0] reuses one backing array across frames; the
// decoded reports never carry fields over from what the array held.
//
// It walks the payload and each report's parameters in one pass,
// parsing every TLV header in place.
func appendTagReports(dst []reader.TagReport, payload []byte) ([]reader.TagReport, error) {
	for len(payload) > 0 {
		if len(payload) < tlvHeaderSize {
			return dst, truncatedTLV(len(payload))
		}
		l := int(binary.BigEndian.Uint16(payload[2:4]))
		if l < tlvHeaderSize || l > len(payload) {
			return dst, tlvLengthError(l)
		}
		t := ParamType(binary.BigEndian.Uint16(payload[0:2]) & 0x3FF)
		body := payload[tlvHeaderSize:l]
		payload = payload[l:]
		if t != ParamTagReportData {
			continue
		}
		dst = append(dst, reader.TagReport{})
		r := &dst[len(dst)-1]
		for len(body) > 0 {
			if len(body) < tlvHeaderSize {
				return dst, truncatedTLV(len(body))
			}
			l := int(binary.BigEndian.Uint16(body[2:4]))
			if l < tlvHeaderSize || l > len(body) {
				return dst, tlvLengthError(l)
			}
			t := ParamType(binary.BigEndian.Uint16(body[0:2]) & 0x3FF)
			b := body[tlvHeaderSize:l]
			body = body[l:]
			switch t {
			case ParamEPCData:
				if len(b) != 12 {
					return dst, fmt.Errorf("llrp: EPCData of %d bytes, want 12", len(b))
				}
				copy(r.EPC[:], b)
			case ParamAntennaID:
				if len(b) != 2 {
					return dst, fmt.Errorf("llrp: AntennaID of %d bytes", len(b))
				}
				r.AntennaPort = int(binary.BigEndian.Uint16(b))
			case ParamPeakRSSI:
				if len(b) != 1 {
					return dst, fmt.Errorf("llrp: PeakRSSI of %d bytes", len(b))
				}
				// Overwritten by the full-precision custom value if present.
				r.RSSI = units.DBm(int8(b[0]))
			case ParamChannelIndex:
				if len(b) != 2 {
					return dst, fmt.Errorf("llrp: ChannelIndex of %d bytes", len(b))
				}
				r.ChannelIndex = int(binary.BigEndian.Uint16(b))
			case ParamFirstSeenUTC:
				if len(b) != 8 {
					return dst, fmt.Errorf("llrp: FirstSeenTimestampUTC of %d bytes", len(b))
				}
				r.Timestamp = time.Duration(binary.BigEndian.Uint64(b)) * time.Microsecond
			case ParamCustom:
				if err := decodeCustom(b, r); err != nil {
					return dst, err
				}
			}
		}
	}
	return dst, nil
}

// decodeCustom parses the vendor parameter: vendor ID then a sequence
// of (subtype uint32, value) fields.
func decodeCustom(b []byte, r *reader.TagReport) error {
	if len(b) < 4 {
		return fmt.Errorf("llrp: short custom parameter")
	}
	if binary.BigEndian.Uint32(b[0:4]) != vendorImpinj {
		return nil // foreign vendor extension; ignore
	}
	rest := b[4:]
	for len(rest) > 0 {
		if len(rest) < 4 {
			return fmt.Errorf("llrp: truncated custom subtype")
		}
		sub := binary.BigEndian.Uint32(rest[0:4])
		rest = rest[4:]
		switch sub {
		case customPhaseAngle:
			if len(rest) < 2 {
				return fmt.Errorf("llrp: truncated phase field")
			}
			// RFPhaseAngle is 12 bits; the field's upper bits are not
			// part of the angle, so Phase stays in [0, 2π).
			steps := binary.BigEndian.Uint16(rest[0:2]) % 4096
			r.Phase = units.Radians(float64(steps) / 4096 * 2 * math.Pi)
			rest = rest[2:]
		case customDoppler:
			if len(rest) < 4 {
				return fmt.Errorf("llrp: truncated doppler field")
			}
			r.DopplerHz = float64(int32(binary.BigEndian.Uint32(rest[0:4]))) / 16
			rest = rest[4:]
		case customChannelFreq:
			if len(rest) < 4 {
				return fmt.Errorf("llrp: truncated channel frequency field")
			}
			r.Frequency = units.Hertz(binary.BigEndian.Uint32(rest[0:4])) * 1000
			rest = rest[4:]
		case customPeakRSSIMilli:
			if len(rest) < 4 {
				return fmt.Errorf("llrp: truncated rssi field")
			}
			r.RSSI = units.DBm(float64(int32(binary.BigEndian.Uint32(rest[0:4]))) / 100)
			rest = rest[4:]
		default:
			return fmt.Errorf("llrp: unknown custom subtype %d", sub)
		}
	}
	return nil
}

// ROSpecConfig is the subset of an ROSpec the emulator honors: which
// antennas to use and how fast to report.
type ROSpecConfig struct {
	ROSpecID uint32
	// AntennaIDs selects antennas (empty = all).
	AntennaIDs []uint16
	// ReportEveryN batches N tag reports per RO_ACCESS_REPORT
	// (0 = reader default).
	ReportEveryN uint16
}

// EncodeROSpec serializes an ROSpecConfig as the ADD_ROSPEC payload.
func EncodeROSpec(cfg ROSpecConfig) []byte {
	body := make([]byte, 0, 8+2*len(cfg.AntennaIDs))
	body = binary.BigEndian.AppendUint32(body, cfg.ROSpecID)
	body = binary.BigEndian.AppendUint16(body, cfg.ReportEveryN)
	body = binary.BigEndian.AppendUint16(body, uint16(len(cfg.AntennaIDs)))
	for _, a := range cfg.AntennaIDs {
		body = binary.BigEndian.AppendUint16(body, a)
	}
	return appendTLV(nil, ParamROSpec, body)
}

// DecodeROSpec parses an ADD_ROSPEC payload.
func DecodeROSpec(payload []byte) (ROSpecConfig, error) {
	it := tlvIter{rest: payload}
	for {
		t, body, ok, err := it.next()
		if err != nil {
			return ROSpecConfig{}, err
		}
		if !ok {
			return ROSpecConfig{}, fmt.Errorf("llrp: ADD_ROSPEC carries no ROSpec parameter")
		}
		if t != ParamROSpec {
			continue
		}
		if len(body) < 8 {
			return ROSpecConfig{}, fmt.Errorf("llrp: short ROSpec body")
		}
		cfg := ROSpecConfig{
			ROSpecID:     binary.BigEndian.Uint32(body[0:4]),
			ReportEveryN: binary.BigEndian.Uint16(body[4:6]),
		}
		n := int(binary.BigEndian.Uint16(body[6:8]))
		if 8+2*n > len(body) {
			return ROSpecConfig{}, fmt.Errorf("llrp: ROSpec antenna list overruns body")
		}
		for i := 0; i < n; i++ {
			cfg.AntennaIDs = append(cfg.AntennaIDs, binary.BigEndian.Uint16(body[8+2*i:10+2*i]))
		}
		return cfg, nil
	}
}

// EncodeROSpecID serializes the 4-byte ROSpec ID payload used by
// ENABLE/START/STOP/DELETE_ROSPEC.
func EncodeROSpecID(id uint32) []byte {
	out := make([]byte, 4)
	binary.BigEndian.PutUint32(out, id)
	return out
}

// DecodeROSpecID parses an ENABLE/START/STOP/DELETE_ROSPEC payload.
func DecodeROSpecID(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("llrp: ROSpec ID payload of %d bytes, want 4", len(payload))
	}
	return binary.BigEndian.Uint32(payload), nil
}
