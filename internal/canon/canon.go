// Package canon is the canonical byte encoding that model checking keys
// states on (core.Router.AppendCanonical, noc.Network.AppendCanonical
// and the per-node sections): signed and unsigned varints, one byte per
// flag, and a packet's logical identity. It is written once, here, so
// the router and the network encode the same way.
//
// Every variable-length field is length- or count-prefixed by its
// caller, so the encoding is unambiguous.
package canon

import (
	"encoding/binary"

	"gonoc/internal/flit"
)

// Int appends v as a signed varint. Most values of a section are small,
// and a zigzagged value below 0x80 is its own one-byte varint, appended
// without the general loop: the bytes are binary.AppendVarint's.
func Int(b []byte, v int) []byte {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return Uint(b, ux)
}

// Uint appends v as an unsigned varint, a value below 0x80 as itself.
func Uint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

// Bool appends v as one byte, 1 or 0.
func Bool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Packet appends a packet's logical identity: source, destination,
// class, size and end-to-end sequence number. The packet ID and the
// timestamps are simulation bookkeeping and are left out: two states
// that differ only in those behave identically forever, and folding
// them together is what makes exhaustive exploration terminate.
func Packet(b []byte, p *flit.Packet) []byte {
	b = Int(b, p.Src)
	b = Int(b, p.Dst)
	b = append(b, byte(p.Class))
	b = Int(b, p.Size)
	return Uint(b, p.Seq)
}
