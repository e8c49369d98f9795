// Package llrp implements the subset of the Low Level Reader Protocol
// (EPCglobal LLRP, the protocol the paper's LLRP Toolkit speaks to the
// Impinj R420 over TCP) that TagBreathe's host side needs: the binary
// message framing, reader configuration and ROSpec lifecycle messages,
// keepalives, and RO_ACCESS_REPORT tag reports carrying the low-level
// data (EPC, antenna, channel, RSSI, phase, Doppler, timestamp) as
// TLV parameters, including the vendor-custom parameters commodity
// readers use for phase and Doppler.
//
// Framing and message types follow the LLRP specification (version 1,
// 10-byte header); parameter encoding uses the spec's TLV layout with
// the standard parameter types where they exist and a custom parameter
// for phase/Doppler, as real Impinj readers do. The package provides
// both ends: a Server for the reader emulator and a Client for hosts.
package llrp

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol version encoded in every header (LLRP 1.0.1 = 1).
const protocolVersion = 1

// maxMessageSize bounds accepted message lengths; a malformed or
// hostile peer cannot make us allocate unboundedly.
const maxMessageSize = 1 << 20

// MessageType identifies an LLRP message (10-bit space).
type MessageType uint16

// LLRP message types (per the LLRP 1.0.1 specification).
const (
	MsgGetReaderCapabilities         MessageType = 1
	MsgGetReaderCapabilitiesResponse MessageType = 11
	MsgSetReaderConfig               MessageType = 3
	MsgSetReaderConfigResponse       MessageType = 13
	MsgCloseConnection               MessageType = 14
	MsgCloseConnectionResponse       MessageType = 4
	MsgAddROSpec                     MessageType = 20
	MsgAddROSpecResponse             MessageType = 30
	MsgDeleteROSpec                  MessageType = 21
	MsgDeleteROSpecResponse          MessageType = 31
	MsgStartROSpec                   MessageType = 22
	MsgStartROSpecResponse           MessageType = 32
	MsgStopROSpec                    MessageType = 23
	MsgStopROSpecResponse            MessageType = 33
	MsgEnableROSpec                  MessageType = 24
	MsgEnableROSpecResponse          MessageType = 34
	MsgROAccessReport                MessageType = 61
	MsgKeepalive                     MessageType = 62
	MsgKeepaliveAck                  MessageType = 72
	MsgReaderEventNotification       MessageType = 63
)

// String implements fmt.Stringer for logs.
//
//tagbreathe:labelvalue the LLRP type space is 10 bits and unknown types collapse to one form
func (t MessageType) String() string {
	switch t {
	case MsgGetReaderCapabilities:
		return "GET_READER_CAPABILITIES"
	case MsgGetReaderCapabilitiesResponse:
		return "GET_READER_CAPABILITIES_RESPONSE"
	case MsgSetReaderConfig:
		return "SET_READER_CONFIG"
	case MsgSetReaderConfigResponse:
		return "SET_READER_CONFIG_RESPONSE"
	case MsgCloseConnection:
		return "CLOSE_CONNECTION"
	case MsgCloseConnectionResponse:
		return "CLOSE_CONNECTION_RESPONSE"
	case MsgAddROSpec:
		return "ADD_ROSPEC"
	case MsgAddROSpecResponse:
		return "ADD_ROSPEC_RESPONSE"
	case MsgDeleteROSpec:
		return "DELETE_ROSPEC"
	case MsgDeleteROSpecResponse:
		return "DELETE_ROSPEC_RESPONSE"
	case MsgStartROSpec:
		return "START_ROSPEC"
	case MsgStartROSpecResponse:
		return "START_ROSPEC_RESPONSE"
	case MsgStopROSpec:
		return "STOP_ROSPEC"
	case MsgStopROSpecResponse:
		return "STOP_ROSPEC_RESPONSE"
	case MsgEnableROSpec:
		return "ENABLE_ROSPEC"
	case MsgEnableROSpecResponse:
		return "ENABLE_ROSPEC_RESPONSE"
	case MsgROAccessReport:
		return "RO_ACCESS_REPORT"
	case MsgKeepalive:
		return "KEEPALIVE"
	case MsgKeepaliveAck:
		return "KEEPALIVE_ACK"
	case MsgReaderEventNotification:
		return "READER_EVENT_NOTIFICATION"
	default:
		return fmt.Sprintf("MessageType(%d)", uint16(t))
	}
}

// Message is one framed LLRP message.
type Message struct {
	Type MessageType
	// ID is the message ID; responses echo the request's ID.
	ID uint32
	// Payload is the body after the 10-byte header.
	Payload []byte
}

// headerSize is the LLRP header length: 2 bytes version+type,
// 4 bytes total length, 4 bytes message ID.
const headerSize = 10

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, m Message) error {
	if m.Type > 0x3FF {
		return fmt.Errorf("llrp: message type %d exceeds 10 bits", m.Type)
	}
	total := headerSize + len(m.Payload)
	if total > maxMessageSize {
		return fmt.Errorf("llrp: message of %d bytes exceeds limit", total)
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], uint16(protocolVersion)<<10|uint16(m.Type))
	binary.BigEndian.PutUint32(hdr[2:6], uint32(total))
	binary.BigEndian.PutUint32(hdr[6:10], m.ID)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("llrp: write header: %w", err)
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return fmt.Errorf("llrp: write payload: %w", err)
		}
	}
	return nil
}

// ReadMessage reads one framed message. It validates the version bits
// and bounds the declared length before allocating.
func ReadMessage(r io.Reader) (Message, error) {
	var buf []byte
	return readMessage(r, &buf)
}

// readMessage is ReadMessage reading the frame, header and payload,
// into *buf, which it grows when the frame does not fit, so a caller
// that keeps *buf reuses one frame buffer across frames. The returned
// payload aliases *buf. A stream that ends before the first byte
// reports io.EOF, and one that ends inside the header
// io.ErrUnexpectedEOF.
//
//tagbreathe:hotpath frame decode runs once per LLRP message on the connection reader
func readMessage(r io.Reader, buf *[]byte) (Message, error) {
	if cap(*buf) < headerSize {
		//tagbreathe:allow hotpath the frame buffer's first allocation; a reused buffer keeps it
		*buf = make([]byte, headerSize)
	}
	hdr := (*buf)[:headerSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Message{}, err // preserve io.EOF for clean-close detection
	}
	verType := binary.BigEndian.Uint16(hdr[0:2])
	ver := verType >> 10 & 0x7
	if ver != protocolVersion {
		//tagbreathe:allow hotpath error path; the connection is torn down after a bad frame
		return Message{}, fmt.Errorf("llrp: unsupported protocol version %d", ver)
	}
	total := int(binary.BigEndian.Uint32(hdr[2:6]))
	if total < headerSize || total > maxMessageSize {
		//tagbreathe:allow hotpath error path; the connection is torn down after a bad frame
		return Message{}, fmt.Errorf("llrp: invalid message length %d", total)
	}
	m := Message{
		Type: MessageType(verType & 0x3FF),
		ID:   binary.BigEndian.Uint32(hdr[6:10]),
	}
	if total > headerSize {
		if cap(*buf) < total {
			//tagbreathe:allow hotpath the frame buffer grows to the largest frame seen; total is bounded by maxMessageSize above
			*buf = make([]byte, total)
		}
		m.Payload = (*buf)[headerSize:total]
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			//tagbreathe:allow hotpath error path; the connection is torn down after a short read
			return Message{}, fmt.Errorf("llrp: read payload: %w", err)
		}
	}
	return m, nil
}

// StatusCode is the LLRPStatus result carried in responses.
type StatusCode uint16

// Status codes (subset).
const (
	StatusSuccess        StatusCode = 0
	StatusParameterError StatusCode = 100
	StatusFieldError     StatusCode = 101
	StatusDeviceError    StatusCode = 401
)

// String implements fmt.Stringer.
func (s StatusCode) String() string {
	switch s {
	case StatusSuccess:
		return "Success"
	case StatusParameterError:
		return "ParameterError"
	case StatusFieldError:
		return "FieldError"
	case StatusDeviceError:
		return "DeviceError"
	default:
		return fmt.Sprintf("StatusCode(%d)", uint16(s))
	}
}
