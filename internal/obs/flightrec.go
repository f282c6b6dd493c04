package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"gonoc/internal/sim"
)

// Flight-recorder defaults: events retained per node lane, and how many
// trigger dumps are kept (the first anomalies are the interesting ones;
// later trips of a wedged fabric repeat the story).
const (
	DefaultFlightEvents = 64
	maxFlightDumps      = 8
)

// FlightRecorder is an always-on bounded record of the most recent
// trace events, cheap enough to leave enabled on 64×64 runs: one
// fixed-size event ring per node (plus one lane for network-global
// events), written without locks.
//
// Lock-freedom leans on the network's phase discipline rather than
// atomics: during the parallel compute phase the only events carrying a
// node's id are emitted by the worker that owns that node, and every
// other emitter (NI offer/eject, link drops, the fault layer, the
// watchdog) runs in a serial phase. One lane therefore never has two
// concurrent writers. The corollary: a FlightRecorder must not be
// shared by concurrently stepping networks (unlike the mutex-guarded
// Tracer) — give each simulation its own.
//
// Record, Trigger and Dumps must also run from a serial phase (a cycle
// hook, post-step code, or the nocassert failure path), where no writer
// is active; the compute phase writes through the lanes the RouterObs
// and NodeObs handles hold.
type FlightRecorder struct {
	perLane int
	lanes   []flightLane // one per node, rings carved from one slab

	// global is the lane of events whose Router names no node. They are
	// kept whole: a node lane implies its slots' router, nothing implies
	// theirs.
	global      []Event
	globalNext  int
	globalTotal uint64

	// details interns the Detail strings of node-lane events, so a slot
	// holds a 16-bit handle instead of a string header. Only the fault
	// layer's serial-phase events carry one.
	details   []string
	detailIdx map[string]uint16

	mu    sync.Mutex
	dumps []Dump
}

// flightSlot is a node lane's stored event: 24 bytes and pointer-free,
// so a lane's ring is half the size of the Events it stands for and the
// garbage collector never scans it. The router is the lane's.
type flightSlot struct {
	cycle  sim.Cycle
	arg    int32
	arg2   int32
	detail uint16 // 1-based index into FlightRecorder.details; 0 is none
	kind   EventKind
	port   int8
	vc     int8
}

// flightLane is one node's ring with its cursor beside it, so a store
// touches the header's cache line and the slot's and nothing else.
type flightLane struct {
	next  int32  // slot the next event lands in
	total uint64 // lifetime stores; min(total, len(ring)) slots are filled
	ring  []flightSlot
}

// put stores s, overwriting the oldest slot when the ring is full.
func (l *flightLane) put(s flightSlot) {
	l.ring[l.next] = s
	if l.next++; int(l.next) == len(l.ring) {
		l.next = 0
	}
	l.total++
}

// NewFlightRecorder returns a recorder for a nodes-router network
// retaining the last perLane events per node. perLane <= 0 selects
// DefaultFlightEvents.
func NewFlightRecorder(nodes, perLane int) *FlightRecorder {
	if nodes < 1 {
		nodes = 1
	}
	if perLane <= 0 {
		perLane = DefaultFlightEvents
	}
	f := &FlightRecorder{
		perLane:   perLane,
		lanes:     make([]flightLane, nodes),
		global:    make([]Event, 0, perLane),
		detailIdx: map[string]uint16{},
	}
	slab := make([]flightSlot, nodes*perLane)
	for i := range f.lanes {
		f.lanes[i].ring = slab[i*perLane : (i+1)*perLane : (i+1)*perLane]
	}
	return f
}

// lane returns node id's lane, or nil when the recorder was sized for
// fewer nodes (noc.New rejects such a recorder; a handle bound past it
// by hand records no flight events).
func (f *FlightRecorder) lane(id int32) *flightLane {
	if id < 0 || int(id) >= len(f.lanes) {
		return nil
	}
	return &f.lanes[id]
}

// intern returns detail's handle, 0 for the empty string — and for a new
// string once all 65,535 handles are taken, which degrades that event's
// Detail to empty rather than growing without bound.
func (f *FlightRecorder) intern(detail string) uint16 {
	if detail == "" {
		return 0
	}
	h, ok := f.detailIdx[detail]
	if !ok && len(f.details) < math.MaxUint16 {
		f.details = append(f.details, detail)
		h = uint16(len(f.details))
		f.detailIdx[detail] = h
	}
	return h
}

// Record stores e in its router's lane, overwriting the oldest event
// when full. It allocates only to intern a Detail it has not seen.
func (f *FlightRecorder) Record(e Event) {
	if l := f.lane(e.Router); l != nil {
		l.put(flightSlot{
			cycle: e.Cycle, arg: e.Arg, arg2: e.Arg2, detail: f.intern(e.Detail),
			kind: e.Kind, port: e.Port, vc: e.VC,
		})
		return
	}
	if len(f.global) < f.perLane {
		f.global = append(f.global, e)
	} else {
		f.global[f.globalNext] = e
	}
	f.globalNext = (f.globalNext + 1) % f.perLane
	f.globalTotal++
}

// Total returns how many events were recorded over the lifetime,
// including overwritten ones. Serial-phase only, like Trigger.
func (f *FlightRecorder) Total() uint64 {
	n := f.globalTotal
	for i := range f.lanes {
		n += f.lanes[i].total
	}
	return n
}

// Dump is one flight-recorder extraction: the events retained at
// trigger time, in canonical order (obs.SortEvents), so a dump is
// bit-exact regardless of the worker count that produced the run.
type Dump struct {
	// Cycle is the simulation cycle the trigger fired in.
	Cycle sim.Cycle
	// Reason describes the trigger (watchdog suspect, nocassert
	// failure, explicit request).
	Reason string
	// Events is the recorded window, canonically ordered.
	Events []Event
}

// Trigger snapshots every lane into a Dump, keeps it (up to
// maxFlightDumps) and returns it. It must run from a serial phase —
// no compute-phase writer may be active.
func (f *FlightRecorder) Trigger(cy sim.Cycle, reason string) Dump {
	total := len(f.global)
	for i := range f.lanes {
		total += int(min(f.lanes[i].total, uint64(f.perLane)))
	}
	d := Dump{Cycle: cy, Reason: reason, Events: make([]Event, 0, total)}
	for id := range f.lanes {
		l := &f.lanes[id]
		n := int(min(l.total, uint64(f.perLane)))
		for _, s := range l.ring[:n] {
			e := Event{
				Cycle: s.cycle, Kind: s.kind, Router: int32(id),
				Port: s.port, VC: s.vc, Arg: s.arg, Arg2: s.arg2,
			}
			if s.detail != 0 {
				e.Detail = f.details[s.detail-1]
			}
			d.Events = append(d.Events, e)
		}
	}
	d.Events = append(d.Events, f.global...)
	SortEvents(d.Events)
	f.mu.Lock()
	if len(f.dumps) < maxFlightDumps {
		f.dumps = append(f.dumps, d)
	}
	f.mu.Unlock()
	return d
}

// Dumps returns the retained trigger dumps in trigger order.
func (f *FlightRecorder) Dumps() []Dump {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Dump(nil), f.dumps...)
}

// dumpEvent is the JSON wire form of a dumped event: the numeric kind
// makes the round-trip exact, the name keeps the file greppable.
type dumpEvent struct {
	Cycle  uint64 `json:"cycle"`
	Kind   uint8  `json:"kind"`
	Name   string `json:"name"`
	Router int32  `json:"router"`
	Port   int8   `json:"port"`
	VC     int8   `json:"vc"`
	Arg    int32  `json:"arg"`
	Arg2   int32  `json:"arg2,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// dumpJSON is the wire form of one Dump.
type dumpJSON struct {
	Cycle  uint64      `json:"cycle"`
	Reason string      `json:"reason"`
	Events []dumpEvent `json:"events"`
}

// WriteDumps writes ds as JSON Lines: one dump object per line, so a
// file accumulates triggers and any line tool can slice it.
func WriteDumps(w io.Writer, ds []Dump) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range ds {
		dj := dumpJSON{Cycle: uint64(d.Cycle), Reason: d.Reason, Events: make([]dumpEvent, len(d.Events))}
		for i, e := range d.Events {
			dj.Events[i] = dumpEvent{
				Cycle: uint64(e.Cycle), Kind: uint8(e.Kind), Name: e.Kind.String(),
				Router: e.Router, Port: e.Port, VC: e.VC,
				Arg: e.Arg, Arg2: e.Arg2, Detail: e.Detail,
			}
		}
		if err := enc.Encode(dj); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDumps parses a stream written by WriteDumps.
func ReadDumps(r io.Reader) ([]Dump, error) {
	dec := json.NewDecoder(r)
	var out []Dump
	for {
		var dj dumpJSON
		if err := dec.Decode(&dj); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: malformed flight dump: %w", err)
		}
		d := Dump{Cycle: sim.Cycle(dj.Cycle), Reason: dj.Reason, Events: make([]Event, len(dj.Events))}
		for i, e := range dj.Events {
			d.Events[i] = Event{
				Cycle: sim.Cycle(e.Cycle), Kind: EventKind(e.Kind),
				Router: e.Router, Port: e.Port, VC: e.VC,
				Arg: e.Arg, Arg2: e.Arg2, Detail: e.Detail,
			}
		}
		out = append(out, d)
	}
}

// FormatDump renders a dump as a human-readable replay, grouped by
// cycle — the "what happened right before the anomaly" report.
func FormatDump(d Dump) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder — %s (trigger cycle %d, %d events)\n", d.Reason, d.Cycle, len(d.Events))
	last := sim.Cycle(0)
	first := true
	for _, e := range d.Events {
		if first || e.Cycle != last {
			fmt.Fprintf(&b, "cycle %d:\n", e.Cycle)
			last, first = e.Cycle, false
		}
		fmt.Fprintf(&b, "  r%-4d", e.Router)
		switch {
		case e.Port >= 0 && e.VC >= 0:
			fmt.Fprintf(&b, " p%d/vc%d", e.Port, e.VC)
		case e.Port >= 0:
			fmt.Fprintf(&b, " p%d    ", e.Port)
		default:
			b.WriteString("       ")
		}
		fmt.Fprintf(&b, "  %-17s", e.Kind.String())
		if n := e.Kind.argName(); n != "" {
			fmt.Fprintf(&b, " %s=%d", n, e.Arg)
		}
		if e.Arg2 != 0 {
			fmt.Fprintf(&b, " arg2=%d", e.Arg2)
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, " (%s)", e.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
