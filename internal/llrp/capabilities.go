package llrp

import "encoding/binary"

// Capabilities is the subset of reader capabilities the emulator
// reports: identity and the dimensions a host needs to configure an
// ROSpec.
type Capabilities struct {
	// ModelName identifies the reader product.
	ModelName string
	// AntennaCount is the number of antenna ports.
	AntennaCount uint16
	// ChannelCount is the size of the active regulatory channel plan.
	ChannelCount uint16
	// MaxTxPowerDBm is the maximum conducted transmit power.
	MaxTxPowerDBm uint16
}

// DefaultCapabilities mirrors the paper's Impinj Speedway R420: four
// antenna ports, 30 dBm, the 10-channel hopping plan.
func DefaultCapabilities() Capabilities {
	return Capabilities{
		ModelName:     "TagBreathe Emulated Speedway R420",
		AntennaCount:  4,
		ChannelCount:  10,
		MaxTxPowerDBm: 30,
	}
}

// capabilities parameter type (uses the GeneralDeviceCapabilities slot
// of the LLRP parameter space).
const paramCapabilities ParamType = 137

// EncodeCapabilities serializes a Capabilities TLV.
func EncodeCapabilities(c Capabilities) []byte {
	body := make([]byte, 0, 8+len(c.ModelName))
	body = binary.BigEndian.AppendUint16(body, c.AntennaCount)
	body = binary.BigEndian.AppendUint16(body, c.ChannelCount)
	body = binary.BigEndian.AppendUint16(body, c.MaxTxPowerDBm)
	body = binary.BigEndian.AppendUint16(body, uint16(len(c.ModelName)))
	body = append(body, c.ModelName...)
	return appendTLV(nil, paramCapabilities, body)
}
