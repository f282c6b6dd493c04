package router

import (
	"fmt"

	"gonoc/internal/flit"
	"gonoc/internal/topology"
)

// OutFlit is a flit leaving a router through an output port, tagged with
// the downstream VC it was allocated. The network delivers it to the
// neighbouring router's opposite input port (or to the local network
// interface when Out == Local). The port and the VC are bytes (Config
// caps both at 64), so an entry is the flit pointer and one more word.
type OutFlit struct {
	// F is the flit itself.
	F *flit.Flit
	// Out is the output port the flit leaves through.
	Out topology.Port
	// DownVC is the downstream input VC the flit enters.
	DownVC int8
}

// String implements fmt.Stringer.
func (o OutFlit) String() string {
	return fmt.Sprintf("out=%v dvc=%d %v", o.Out, o.DownVC, o.F)
}

// Credit is a flow-control credit returned upstream when a flit leaves an
// input VC buffer. VCFree additionally signals that the tail departed and
// the VC may be reallocated (gonoc's atomic VC reallocation). A credit is
// three bytes.
type Credit struct {
	// In is the input port of the router that emitted the credit; the
	// network forwards the credit to whatever feeds that port (the
	// neighbouring router's output side, or the local NI).
	In topology.Port
	// VC is the input VC index the credit refers to, as seen by the
	// upstream allocator (a transferred packet credits its original VC).
	VC int8
	// VCFree is set when the tail flit departed and the VC is free for a
	// new packet.
	VCFree bool
}

// String implements fmt.Stringer.
func (c Credit) String() string {
	return fmt.Sprintf("credit in=%v vc=%d free=%v", c.In, c.VC, c.VCFree)
}

// InFlit is a flit arriving at a router input port, tagged with the VC it
// was allocated upstream.
type InFlit struct {
	// In is the input port the flit arrives on.
	In topology.Port
	// VC is the input VC the upstream allocated.
	VC int
	// F is the flit itself.
	F *flit.Flit
}

// String implements fmt.Stringer.
func (i InFlit) String() string {
	return fmt.Sprintf("in=%v vc=%d %v", i.In, i.VC, i.F)
}
