package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

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
// trace events, cheap enough to leave enabled on 64×64 runs: the
// Tracer's event store, sized at construction, with the dumps its
// triggers took. Record, Trigger and Dumps run from a serial phase; the
// compute phase writes through the lanes the RouterObs and NodeObs
// handles hold. Like every event store it must not be shared by
// concurrently stepping networks — give each simulation its own.
type FlightRecorder struct {
	eventStore
	dumps []Dump
}

// NewFlightRecorder returns a recorder for a nodes-router network
// retaining the last perLane events per node (and perLane events whose
// router names no node). perLane <= 0 selects DefaultFlightEvents.
func NewFlightRecorder(nodes, perLane int) *FlightRecorder {
	if nodes < 1 {
		nodes = 1
	}
	if perLane <= 0 {
		perLane = DefaultFlightEvents
	}
	f := &FlightRecorder{}
	f.size(nodes, perLane)
	return f
}

// Record stores e in its router's lane (or the global lane when its
// router names no node), overwriting the oldest event when full.
func (f *FlightRecorder) Record(e Event) { f.record(e) }

// Dump is one flight-recorder extraction: the events retained at
// trigger time, in merge order (Tracer.Events), so a dump is bit-exact
// regardless of the worker count that produced the run.
type Dump struct {
	// Cycle is the simulation cycle the trigger fired in.
	Cycle sim.Cycle
	// Reason describes the trigger (watchdog suspect, nocassert
	// failure, explicit request).
	Reason string
	// Events is the recorded window in merge order.
	Events []Event
}

// Trigger snapshots every lane into a Dump, keeps it (up to
// maxFlightDumps) and returns it.
func (f *FlightRecorder) Trigger(cy sim.Cycle, reason string) Dump {
	d := Dump{Cycle: cy, Reason: reason, Events: f.events()}
	if len(f.dumps) < maxFlightDumps {
		f.dumps = append(f.dumps, d)
	}
	return d
}

// Dumps returns the retained trigger dumps in trigger order.
func (f *FlightRecorder) Dumps() []Dump { return append([]Dump(nil), f.dumps...) }

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
	for i, e := range d.Events {
		if i == 0 || e.Cycle != d.Events[i-1].Cycle {
			fmt.Fprintf(&b, "cycle %d:\n", e.Cycle)
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
			fmt.Fprintf(&b, " %s=%v", n, e.Kind.argValue(e.Arg))
		}
		if n := e.Kind.arg2Name(); n != "" {
			fmt.Fprintf(&b, " %s=%d", n, e.Arg2)
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, " (%s)", e.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
