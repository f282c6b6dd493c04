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

// Int appends v as a signed varint.
func Int(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// Uint appends v as an unsigned varint.
func Uint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

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
