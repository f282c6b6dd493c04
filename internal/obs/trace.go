package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"gonoc/internal/sim"
)

// EventKind identifies one class of traced event.
type EventKind uint8

// The traced event kinds. Pipeline events use Port/VC for the acting
// input VC and Arg for the output port; the remaining fields are
// documented per kind.
const (
	// EvRCCompute: routing computed for the head flit of (Port, VC);
	// Arg is the output port.
	EvRCCompute EventKind = iota
	// EvRCDuplicate: as EvRCCompute, but served by the duplicate unit.
	EvRCDuplicate
	// EvVAAlloc: (Port, VC) won downstream VC Arg2 at output port Arg.
	EvVAAlloc
	// EvVABorrow: (Port, VC) borrowed the stage-1 arbiters of sibling VC
	// Arg (Section V-B1).
	EvVABorrow
	// EvVABorrowStall: (Port, VC) found no lender and waits a cycle.
	EvVABorrowStall
	// EvVARetry: Arg requesters of downstream VC (Port, VC) hit a faulty
	// stage-2 arbiter and must re-arbitrate (Port is the output port).
	EvVARetry
	// EvSAGrant: (Port, VC) won switch allocation toward output Arg.
	EvSAGrant
	// EvSABypass: as EvSAGrant, issued by the bypass default winner.
	EvSABypass
	// EvSATransfer: input port Port adopted VC Arg2 into default winner
	// VC Arg (Section V-C1 transfer).
	EvSATransfer
	// EvXBTraverse: a flit from (Port, VC) crossed the crossbar to
	// output Arg.
	EvXBTraverse
	// EvXBSecondary: as EvXBTraverse, through the secondary path.
	EvXBSecondary
	// EvNIOffer: a packet for node Arg entered the NI injection queue.
	EvNIOffer
	// EvNIEject: a packet was delivered at this node; Arg is its
	// creation-to-ejection latency in cycles.
	EvNIEject
	// EvFaultInject: a permanent fault appeared at (Port, VC); Arg is
	// the site's pipeline stage; Detail names the site.
	EvFaultInject
	// EvFaultTransient: a transient strike at (Port, VC); Detail names
	// the site, Arg is the outage duration.
	EvFaultTransient
	// EvFaultRecover: a transient outage at (Port, VC) expired.
	EvFaultRecover
	// EvFaultDetect: the watchdog localized a suspected fault at
	// (Port, VC); Arg is the suspected pipeline stage.
	EvFaultDetect
	// EvReroute: routing for (Port, VC) detoured off the XY path around a
	// dead link or router; Arg is the chosen output port.
	EvReroute
	// EvLinkDrop: a packet was discarded at the dead outgoing link Port;
	// Arg is the packet's destination node.
	EvLinkDrop
	// EvDropUnreachable: a packet was dropped because no path to
	// destination Arg survives the fault set.
	EvDropUnreachable
	// EvNIRetransmit: the NI re-injected an unacknowledged packet for
	// destination Arg; Arg2 is the retry number.
	EvNIRetransmit
	// EvNIDupSuppressed: the sink NI discarded a duplicate delivery of a
	// packet from source Arg.
	EvNIDupSuppressed

	numEventKinds
)

// events holds one row per EventKind: its display name, its stage and
// the Chrome-trace args keys of Arg and Arg2 ("" when unused).
var events = [numEventKinds]struct {
	name      string
	stage     Stage
	arg, arg2 string
}{
	EvRCCompute:       {"RC compute", StageRC, "out", ""},
	EvRCDuplicate:     {"RC duplicate", StageRC, "out", ""},
	EvVAAlloc:         {"VA alloc", StageVA, "out", "dvc"},
	EvVABorrow:        {"VA borrow", StageVA, "lender", ""},
	EvVABorrowStall:   {"VA borrow stall", StageVA, "", ""},
	EvVARetry:         {"VA retry", StageVA, "losers", ""},
	EvSAGrant:         {"SA grant", StageSA, "out", ""},
	EvSABypass:        {"SA bypass", StageSA, "out", ""},
	EvSATransfer:      {"SA transfer", StageSA, "winner", "adopted"},
	EvXBTraverse:      {"XB traverse", StageXB, "out", ""},
	EvXBSecondary:     {"XB secondary", StageXB, "out", ""},
	EvNIOffer:         {"NI offer", StageNI, "dst", ""},
	EvNIEject:         {"NI eject", StageNI, "latency", ""},
	EvFaultInject:     {"fault inject", StageFault, "stage", ""},
	EvFaultTransient:  {"fault transient", StageFault, "duration", ""},
	EvFaultRecover:    {"fault recover", StageFault, "", ""},
	EvFaultDetect:     {"fault detect", StageFault, "stage", ""},
	EvReroute:         {"reroute", StageRC, "out", ""},
	EvLinkDrop:        {"link drop", StageLink, "dst", ""},
	EvDropUnreachable: {"drop unreachable", StageNI, "dst", ""},
	EvNIRetransmit:    {"NI retransmit", StageNI, "dst", "retry"},
	EvNIDupSuppressed: {"NI dup suppressed", StageNI, "src", ""},
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k < numEventKinds {
		return events[k].name
	}
	return "event.unknown"
}

// Stage returns the pipeline stage (or pseudo-stage) of the event kind.
func (k EventKind) Stage() Stage {
	if k < numEventKinds {
		return events[k].stage
	}
	return StageFault
}

// instant reports whether the event is a point-in-time marker rather
// than a one-cycle operation (Chrome "i" phase vs "X").
func (k EventKind) instant() bool { return k >= EvFaultInject }

// argName returns the Chrome-trace args key for Arg, or "" when unused.
func (k EventKind) argName() string {
	if k < numEventKinds {
		return events[k].arg
	}
	return ""
}

// arg2Name returns the args key for Arg2, or "" when unused.
func (k EventKind) arg2Name() string {
	if k < numEventKinds {
		return events[k].arg2
	}
	return ""
}

// argValue renders Arg under its argName: a stage name where Arg is a
// pipeline stage, the integer otherwise.
func (k EventKind) argValue(arg int32) any {
	if k.argName() == "stage" {
		return Stage(arg).String()
	}
	return arg
}

// Event is one cycle-stamped occurrence inside a router, NI or the fault
// layer. The integer fields are deliberately small so a deep ring buffer
// stays cheap; Detail is set only by the low-frequency fault events.
type Event struct {
	// Cycle is the simulation cycle the event happened in.
	Cycle sim.Cycle
	// Kind is the event class.
	Kind EventKind
	// Router is the node id.
	Router int32
	// Port and VC locate the acting component (see the Kind docs);
	// NoPort / NoVC when not applicable.
	Port int8
	VC   int8
	// Arg and Arg2 carry per-Kind detail (see the Kind docs).
	Arg  int32
	Arg2 int32
	// Detail is an optional human-readable note (fault site names). Only
	// serial-phase emitters may set one: the event store interns it in a
	// table no lock guards.
	Detail string
}

// Tracer is the FlightRecorder's event store with a pause switch.
// Observer.Attach (noc.New calls it) carves a ring of ⌈capacity/nodes⌉
// slots per router, and one for events whose router names no node — the
// ring every event goes to, capacity deep, before a network attaches. A
// wrapping trace thus keeps each router's most recent events. Emit runs
// from a serial phase; the compute phase writes through the handles.
type Tracer struct {
	// paused is read by every emitter, so a paused tracer costs one
	// atomic load.
	paused atomic.Bool
	eventStore
}

// NewTracer returns a tracer retaining capacity events (minimum 1): the
// last capacity globally until a network attaches, the last
// ⌈capacity/nodes⌉ of each router after.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{eventStore: eventStore{globalCap: capacity}}
}

// Emit records an event unless capture is paused.
func (t *Tracer) Emit(e Event) {
	if !t.paused.Load() {
		t.record(e)
	}
}

// SetEnabled pauses (false) or resumes (true) event capture, so a warmup
// window can be excluded from a trace. It takes effect for emits that
// start after it returns; call it between steps.
func (t *Tracer) SetEnabled(on bool) { t.paused.Store(!on) }

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	total, retained := t.count()
	return total - uint64(retained)
}

// Events returns the retained events in merge order: stably by (cycle,
// router), each router's events in the order it emitted them — the same
// order at any worker count.
func (t *Tracer) Events() []Event { return t.events() }

// jsonlEvent is the JSON Lines wire form of an Event. Port and VC are
// always present — 0 is a meaningful value (the Local port, VC 0) and
// "not applicable" is the explicit -1 sentinel.
type jsonlEvent struct {
	Cycle  uint64 `json:"cycle"`
	Kind   string `json:"kind"`
	Stage  string `json:"stage"`
	Router int32  `json:"router"`
	Port   int8   `json:"port"`
	VC     int8   `json:"vc"`
	Arg    int32  `json:"arg"`
	Arg2   int32  `json:"arg2,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// WriteJSONL writes the retained events as JSON Lines: one object per
// event, machine-parseable with any line-oriented tooling.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events() {
		je := jsonlEvent{
			Cycle:  uint64(e.Cycle),
			Kind:   e.Kind.String(),
			Stage:  e.Kind.Stage().String(),
			Router: e.Router,
			Port:   e.Port,
			VC:     e.VC,
			Arg:    e.Arg,
			Arg2:   e.Arg2,
			Detail: e.Detail,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// One simulation cycle maps to one trace microsecond; routers map to
// processes (pid) and ports to threads (tid), so chrome://tracing and
// Perfetto lay a router's activity out as parallel per-port lanes.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the retained events in Chrome trace_event JSON
// (the {"traceEvents": [...]} object form). The output opens directly in
// chrome://tracing or https://ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	out := make([]chromeEvent, 0, len(events)+16)

	// Name the router processes and port threads that appear.
	type lane struct{ pid, tid int32 }
	seen := map[lane]bool{}
	for _, e := range events {
		l := lane{pid: e.Router, tid: int32(e.Port)}
		if seen[l] {
			continue
		}
		seen[l] = true
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: e.Router,
			Args: map[string]any{"name": fmt.Sprintf("router %d", e.Router)},
		})
		tname := "router"
		if e.Port >= 0 {
			tname = fmt.Sprintf("port %d", e.Port)
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: e.Router, Tid: int32(e.Port),
			Args: map[string]any{"name": tname},
		})
	}

	for _, e := range events {
		ce := chromeEvent{
			Name: e.Kind.String(),
			Cat:  e.Kind.Stage().String(),
			Ts:   uint64(e.Cycle),
			Pid:  e.Router,
			Tid:  int32(e.Port),
		}
		if e.Kind.instant() {
			ce.Ph, ce.S = "i", "p" // process-scoped instant marker
		} else {
			ce.Ph, ce.Dur = "X", 1 // one-cycle complete event
		}
		args := map[string]any{}
		if e.VC != NoVC {
			args["vc"] = e.VC
		}
		if n := e.Kind.argName(); n != "" {
			args[n] = e.Kind.argValue(e.Arg)
		}
		if n := e.Kind.arg2Name(); n != "" {
			args[n] = e.Arg2
		}
		if e.Detail != "" {
			args["site"] = e.Detail
		}
		if len(args) > 0 {
			ce.Args = args
		}
		out = append(out, ce)
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{out, "ns"}); err != nil {
		return err
	}
	return bw.Flush()
}
