package obs

import (
	"fmt"
	"sort"
	"strings"

	"gonoc/internal/sim"
)

// Hop spans: a packet's lifecycle reconstructed from the event trace and
// decomposed per hop into pipeline phases — route compute, VC-allocation
// wait (including fault-tolerance borrow stalls), switch-allocation
// wait, crossbar serialization and link traversal. No extra
// instrumentation is needed: the tracer's pipeline events already carry
// everything required to follow a packet, because a wormhole packet owns
// exactly one input VC per router at a time and the VA-allocation event
// names the downstream (output port, VC) pair the packet moves to next.
// The builder chains those allocations across routers; FIFO order per
// downstream VC resolves which packet is which.
//
// Spans are derived data: they are only as complete as the trace window.
// When a router's ring wrapped, chains whose head events were
// overwritten are reported as orphans and chains still in flight at the
// end of the window as incomplete.

// SpanConfig tells the builder how the routers are wired; the obs
// package itself is topology-agnostic.
type SpanConfig struct {
	// NextHop maps (router, output port) to the downstream router and
	// the input port the link feeds there. ok must be false for the
	// local (ejection) port.
	NextHop func(router, out int) (nextRouter, inPort int, ok bool)
	// LocalPort is the index of the NI-facing port (topology.Local).
	LocalPort int
}

// HopSpan is one router traversal of one packet.
type HopSpan struct {
	// Router is the node id; InPort and VC the input VC the packet
	// occupied; Out and DownVC the output port and downstream VC it won.
	Router      int
	InPort, VC  int
	Out, DownVC int

	// Arrive is the cycle the head's route was computed; VACycle the
	// cycle the downstream VC was allocated; SACycle the first
	// switch-allocation grant; Depart the last flit's crossbar
	// traversal.
	Arrive, VACycle, SACycle, Depart sim.Cycle

	// Flits counts crossbar traversals (the packet length as seen at
	// this hop); Grants counts switch-allocation wins.
	Flits, Grants int

	// Fault-tolerance activity at this hop: RC served by the duplicate
	// unit, stage-1 arbiter borrows and the cycles stalled waiting for a
	// lender, grants issued by the SA bypass default winner, and flits
	// detoured through the secondary crossbar path.
	Duplicate      bool
	Borrows        int
	BorrowStalls   int
	BypassGrants   int
	SecondaryFlits int

	sawVA, sawSA bool
}

// VAWait returns the cycles from route computation to VC allocation.
func (h *HopSpan) VAWait() sim.Cycle {
	if !h.sawVA || h.VACycle < h.Arrive {
		return 0
	}
	return h.VACycle - h.Arrive
}

// SAWait returns the cycles from VC allocation to the first switch
// grant.
func (h *HopSpan) SAWait() sim.Cycle {
	if !h.sawVA || !h.sawSA || h.SACycle < h.VACycle {
		return 0
	}
	return h.SACycle - h.VACycle
}

// Serialize returns the cycles from the first switch grant to the last
// flit's crossbar traversal (body-flit serialization).
func (h *HopSpan) Serialize() sim.Cycle {
	if !h.sawSA || h.Depart < h.SACycle {
		return 0
	}
	return h.Depart - h.SACycle
}

// PacketSpan is one packet's reconstructed lifecycle.
type PacketSpan struct {
	// Src and Dst are the first and last routers of the chain.
	Src, Dst int
	// Offered is the cycle the packet entered the source NI queue (from
	// the matched NI-offer event; equal to Injected when no offer event
	// was in the window). Injected is the first hop's route-compute
	// cycle and Ejected the delivery cycle.
	Offered, Injected, Ejected sim.Cycle
	// Latency is the creation-to-ejection latency reported by the
	// NI-eject event (includes source queueing before the window).
	Latency sim.Cycle
	// Hops is the chain of router traversals in path order.
	Hops []HopSpan
}

// NetworkLatency returns the in-window network traversal time.
func (p *PacketSpan) NetworkLatency() sim.Cycle {
	if p.Ejected < p.Injected {
		return 0
	}
	return p.Ejected - p.Injected
}

// SourceQueue returns the cycles spent queued at the source NI within
// the window.
func (p *PacketSpan) SourceQueue() sim.Cycle {
	if p.Injected < p.Offered {
		return 0
	}
	return p.Injected - p.Offered
}

// SpanSet is the result of a reconstruction pass.
type SpanSet struct {
	// Packets holds the completed (ejected-in-window) packets in
	// ejection order.
	Packets []PacketSpan
	// Incomplete counts chains still in flight when the window ended.
	Incomplete int
	// Orphans counts chains that began mid-flight — their earlier
	// events were overwritten by ring wrap-around.
	Orphans int
	// Dropped counts pipeline events that could not be attributed to
	// any hop (also a ring-wrap artifact).
	Dropped int
}

// span is the mutable build-time form of PacketSpan.
type span struct {
	src          int
	hops         []*HopSpan
	orphan       bool
	complete     bool
	ejected      sim.Cycle
	latency      sim.Cycle
	offered      sim.Cycle
	offerMatched bool
}

type vcKey struct {
	r    int32
	p, v int8
}

// pendingHop is a chain whose head flit crossed a link toward key's
// input VC and is expected to route there at or after ready.
type pendingHop struct {
	sp    *span
	ready sim.Cycle
}

// BuildSpans reconstructs packet spans from a trace window in merge
// order (Tracer.Events): by (cycle, router), each router's events in its
// causal intra-cycle order. That order is the same at any worker count,
// and so is the result. The window must cover the same cycles on every
// router — Network.Spans cuts a wrapped trace to one — or hops of
// different packets may join across the gap.
func BuildSpans(evs []Event, cfg SpanConfig) SpanSet {
	var (
		set     SpanSet
		open    = map[vcKey]*HopSpan{}
		owner   = map[vcKey]*span{}
		pending = map[vcKey][]pendingHop{}
		ejectQ  = map[int32][]*span{}
		offers  = map[[2]int32][]sim.Cycle{}
		spans   []*span
		done    []*span
	)

	for _, e := range evs {
		k := vcKey{r: e.Router, p: e.Port, v: e.VC}
		switch e.Kind {
		case EvNIOffer:
			offers[[2]int32{e.Router, e.Arg}] = append(offers[[2]int32{e.Router, e.Arg}], e.Cycle)

		case EvRCCompute, EvRCDuplicate:
			if h := open[k]; h != nil && h.Flits == 0 {
				// Re-computation for the same head (no flit has left):
				// keep the hop open rather than starting a new chain.
				if e.Kind == EvRCDuplicate {
					h.Duplicate = true
				}
				continue
			}
			var sp *span
			if q := pending[k]; len(q) > 0 && q[0].ready <= e.Cycle {
				sp = q[0].sp
				pending[k] = q[1:]
			} else {
				sp = &span{src: int(e.Router), offered: e.Cycle}
				if int(e.Port) != cfg.LocalPort {
					sp.orphan = true
					set.Orphans++
				}
				spans = append(spans, sp)
			}
			h := &HopSpan{
				Router: int(e.Router), InPort: int(e.Port), VC: int(e.VC),
				Out: -1, DownVC: -1,
				Arrive: e.Cycle, Duplicate: e.Kind == EvRCDuplicate,
			}
			sp.hops = append(sp.hops, h)
			open[k] = h
			owner[k] = sp

		case EvVABorrow:
			if h := open[k]; h != nil {
				h.Borrows++
			} else {
				set.Dropped++
			}
		case EvVABorrowStall:
			if h := open[k]; h != nil {
				h.BorrowStalls++
			} else {
				set.Dropped++
			}

		case EvVAAlloc:
			h := open[k]
			if h == nil {
				set.Dropped++
				continue
			}
			h.Out, h.DownVC = int(e.Arg), int(e.Arg2)
			h.VACycle, h.sawVA = e.Cycle, true
			if h.Out == cfg.LocalPort {
				ejectQ[e.Router] = append(ejectQ[e.Router], owner[k])
			}

		case EvSAGrant, EvSABypass:
			h := open[k]
			if h == nil {
				set.Dropped++
				continue
			}
			if !h.sawSA {
				h.SACycle, h.sawSA = e.Cycle, true
			}
			h.Grants++
			if e.Kind == EvSABypass {
				h.BypassGrants++
			}

		case EvXBTraverse, EvXBSecondary:
			h := open[k]
			if h == nil {
				set.Dropped++
				continue
			}
			h.Depart = e.Cycle
			h.Flits++
			if e.Kind == EvXBSecondary {
				h.SecondaryFlits++
			}
			if h.Flits == 1 && h.sawVA && h.Out != cfg.LocalPort {
				if nr, inPort, ok := cfg.NextHop(int(e.Router), h.Out); ok {
					nk := vcKey{r: int32(nr), p: int8(inPort), v: int8(h.DownVC)}
					pending[nk] = append(pending[nk], pendingHop{sp: owner[k], ready: e.Cycle + 1})
				}
			}

		case EvNIEject:
			q := ejectQ[e.Router]
			for i, sp := range q {
				last := sp.hops[len(sp.hops)-1]
				if last.Router == int(e.Router) && last.Out == cfg.LocalPort &&
					last.Flits > 0 && last.Depart == e.Cycle {
					sp.complete = true
					sp.ejected = e.Cycle
					sp.latency = sim.Cycle(e.Arg)
					ejectQ[e.Router] = append(q[:i:i], q[i+1:]...)
					if !sp.orphan {
						done = append(done, sp)
					}
					break
				}
			}
		}
	}

	for _, sp := range spans {
		if !sp.complete && !sp.orphan {
			set.Incomplete++
		}
	}

	set.Packets = make([]PacketSpan, 0, len(done))
	for _, sp := range done {
		ps := PacketSpan{
			Src: sp.src, Offered: sp.offered,
			Injected: sp.hops[0].Arrive,
			Ejected:  sp.ejected, Latency: sp.latency,
		}
		last := sp.hops[len(sp.hops)-1]
		ps.Dst = last.Router
		// Match the earliest NI-offer for this (src, dst) pair that
		// precedes injection, for the source-queueing component.
		ok := [2]int32{int32(ps.Src), int32(ps.Dst)}
		if q := offers[ok]; len(q) > 0 && q[0] <= ps.Injected {
			ps.Offered = q[0]
			offers[ok] = q[1:]
		}
		ps.Hops = make([]HopSpan, len(sp.hops))
		for i, h := range sp.hops {
			ps.Hops[i] = *h
		}
		set.Packets = append(set.Packets, ps)
	}
	return set
}

// FormatSpans renders a SpanSet as the critical-path breakdown printed
// by `noctool observe spans`: where the cycles of a delivered packet go — per
// pipeline phase, with the share each fault-tolerance mechanism adds —
// followed by the slowest packets hop by hop.
func FormatSpans(set SpanSet, top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-packet hop spans: %d complete packets", len(set.Packets))
	if set.Incomplete > 0 || set.Orphans > 0 || set.Dropped > 0 {
		fmt.Fprintf(&b, " (%d in flight at window end, %d orphaned by ring wrap, %d unattributed events)",
			set.Incomplete, set.Orphans, set.Dropped)
	}
	b.WriteString("\n")
	if len(set.Packets) == 0 {
		return b.String()
	}

	var (
		queue, rc, vaWait, saWait, ser, link, total uint64
		stalls, borrows, bypass, secondary, dup     uint64
		hops                                        int
	)
	for i := range set.Packets {
		p := &set.Packets[i]
		queue += uint64(p.SourceQueue())
		total += uint64(p.SourceQueue() + p.NetworkLatency())
		hops += len(p.Hops)
		for j := range p.Hops {
			h := &p.Hops[j]
			rc++
			vaWait += uint64(h.VAWait())
			saWait += uint64(h.SAWait())
			ser += uint64(h.Serialize())
			if j < len(p.Hops)-1 {
				link++
			}
			stalls += uint64(h.BorrowStalls)
			borrows += uint64(h.Borrows)
			bypass += uint64(h.BypassGrants)
			secondary += uint64(h.SecondaryFlits)
			if h.Duplicate {
				dup++
			}
		}
	}
	n := uint64(len(set.Packets))
	pct := func(v uint64) float64 {
		if total == 0 {
			return 0
		}
		return float64(v) / float64(total) * 100
	}
	fmt.Fprintf(&b, "critical path over %d packets, %d hops (%% of %d total cycles):\n", n, hops, total)
	fmt.Fprintf(&b, "  %-26s %8d  (%5.1f%%)\n", "source queueing", queue, pct(queue))
	fmt.Fprintf(&b, "  %-26s %8d  (%5.1f%%)\n", "route computation", rc, pct(rc))
	fmt.Fprintf(&b, "  %-26s %8d  (%5.1f%%)  incl. %d borrow-stall cycles\n",
		"VC allocation wait", vaWait, pct(vaWait), stalls)
	fmt.Fprintf(&b, "  %-26s %8d  (%5.1f%%)\n", "switch allocation wait", saWait, pct(saWait))
	fmt.Fprintf(&b, "  %-26s %8d  (%5.1f%%)\n", "crossbar serialization", ser, pct(ser))
	fmt.Fprintf(&b, "  %-26s %8d  (%5.1f%%)\n", "link traversal", link, pct(link))
	fmt.Fprintf(&b, "fault-tolerance mechanisms on the path: "+
		"%d VA borrows (%d stall cycles), %d SA bypass grants, %d secondary-crossbar flits, %d duplicate-RC hops\n",
		borrows, stalls, bypass, secondary, dup)

	if top > 0 {
		idx := make([]int, len(set.Packets))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, c int) bool {
			return set.Packets[idx[a]].Latency > set.Packets[idx[c]].Latency
		})
		if top > len(idx) {
			top = len(idx)
		}
		fmt.Fprintf(&b, "slowest %d packets:\n", top)
		for _, i := range idx[:top] {
			p := &set.Packets[i]
			fmt.Fprintf(&b, "  %3d->%-3d lat %5d (net %4d, %d hops):",
				p.Src, p.Dst, p.Latency, p.NetworkLatency(), len(p.Hops))
			for j := range p.Hops {
				h := &p.Hops[j]
				ft := ""
				if h.BorrowStalls > 0 {
					ft += fmt.Sprintf(" stall%d", h.BorrowStalls)
				}
				if h.BypassGrants > 0 {
					ft += " byp"
				}
				if h.SecondaryFlits > 0 {
					ft += " sec"
				}
				fmt.Fprintf(&b, " r%d[va%d sa%d xb%d%s]",
					h.Router, h.VAWait(), h.SAWait(), h.Serialize(), ft)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
