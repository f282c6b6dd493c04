// Package flit defines the units of data movement in the NoC.
//
// Following the paper (and Dally & Towles), a packet is segmented into
// flits — flow-control units — before entering the network: a head flit
// that allocates router resources, zero or more body flits carrying the
// payload, and a tail flit that releases resources. A single-flit packet
// uses a flit that is simultaneously head and tail.
package flit

import (
	"fmt"

	"gonoc/internal/sim"
)

// Kind identifies a flit's role within its packet.
type Kind uint8

const (
	// Head allocates a route and a downstream virtual channel.
	Head Kind = iota
	// Body carries payload under the head's allocation.
	Body
	// Tail carries payload and releases the allocation behind it.
	Tail
	// HeadTail is the single flit of a one-flit packet.
	HeadTail
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "head+tail"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsHead reports whether the flit opens a packet (Head or HeadTail).
func (k Kind) IsHead() bool { return k == Head || k == HeadTail }

// IsTail reports whether the flit closes a packet (Tail or HeadTail).
func (k Kind) IsTail() bool { return k == Tail || k == HeadTail }

// Class is the message class (virtual network) a packet travels in.
// Separating coherence requests from responses into disjoint VC classes is
// the standard way to break protocol deadlock in directory-based CMPs, and
// is how the paper's GEM5/GARNET configuration operates.
type Class uint8

const (
	// Request packets: coherence requests, typically single-flit control.
	Request Class = iota
	// Response packets: data replies, typically multi-flit.
	Response
	// NumClasses is the number of message classes.
	NumClasses = 2
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Request:
		return "request"
	case Response:
		return "response"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Packet is a network-level message between two nodes.
type Packet struct {
	// ID is unique per network for the lifetime of a simulation.
	ID uint64
	// Src and Dst are node indices in the topology.
	Src, Dst int
	// Class is the message class (virtual network).
	Class Class
	// Size is the packet length in flits (>= 1).
	Size int
	// Seq is the source NI's end-to-end sequence number, assigned per
	// source node at offer time. A retransmitted copy keeps the original
	// Seq (under a fresh ID), which is how the sink suppresses duplicates
	// and the source matches deliveries to its retransmission buffer.
	Seq uint64
	// CreatedAt is the cycle the packet was offered to the source queue.
	CreatedAt sim.Cycle
	// InjectedAt is the cycle the head flit entered the network proper.
	InjectedAt sim.Cycle
	// EjectedAt is the cycle the tail flit left the network at Dst.
	EjectedAt sim.Cycle
}

// Latency returns the packet latency in cycles from creation (including
// source queueing) to ejection. It is only meaningful after ejection.
func (p *Packet) Latency() sim.Cycle { return p.EjectedAt - p.CreatedAt }

// NetworkLatency returns the in-network latency (injection to ejection).
func (p *Packet) NetworkLatency() sim.Cycle { return p.EjectedAt - p.InjectedAt }

// String implements fmt.Stringer.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %d->%d %s size=%d", p.ID, p.Src, p.Dst, p.Class, p.Size)
}

// Flit is one flow-control unit of a packet.
type Flit struct {
	// Pkt is the packet this flit belongs to. All flits of a packet share
	// the same *Packet, which is how ejection stamps the packet once.
	Pkt *Packet
	// Kind is the flit's role.
	Kind Kind
	// Seq is the flit's position within the packet, 0-based.
	Seq int
}

// String implements fmt.Stringer.
func (f *Flit) String() string {
	return fmt.Sprintf("%s[%d/%d] of %s", f.Kind, f.Seq+1, f.Pkt.Size, f.Pkt)
}

// Segment slices a packet into its flits. A size-1 packet becomes a single
// HeadTail flit. It panics if p.Size < 1.
func Segment(p *Packet) []*Flit {
	if p.Size < 1 {
		panic(fmt.Sprintf("flit: packet %v has size %d", p, p.Size))
	}
	flits := make([]*Flit, p.Size)
	for i := range flits {
		k := Body
		switch {
		case p.Size == 1:
			k = HeadTail
		case i == 0:
			k = Head
		case i == p.Size-1:
			k = Tail
		}
		flits[i] = &Flit{Pkt: p, Kind: k, Seq: i}
	}
	return flits
}
