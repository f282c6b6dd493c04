package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"gonoc/internal/sim"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	// The registry must be safe for concurrent resolution and the
	// counters for concurrent increments (run under -race in CI).
	m := NewMetrics()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	key := Key{Kind: KFlitsRouted, Router: 3, Port: 1, VC: NoVC}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.Counter(key).Inc()
				m.Gauge(Key{Kind: KNIQueueDepth, Router: 3, Port: NoPort, VC: NoVC}).Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter(key).Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestDisabledObserverIsNoOp(t *testing.T) {
	// A nil Observer must make every binding nil and every generic
	// record a no-op — this is the disabled hot path.
	if BindRouter(nil, 0, 5, 4) != nil {
		t.Fatal("BindRouter(nil) != nil")
	}
	if BindNode(nil, 0, 5, 4) != nil {
		t.Fatal("BindNode(nil) != nil")
	}
	var o *Observer
	o.RecordFault(KFaultsInjected, EvFaultInject, 10, 1, 2, 0, 0, "SA1 arbiter") // must not panic
	// And an Observer with both surfaces nil must also be inert.
	empty := &Observer{}
	empty.RecordFault(KFaultsInjected, EvFaultInject, 10, 1, 2, 0, 0, "SA1 arbiter")
	if n := BindNode(empty, 1, 5, 4); n == nil {
		t.Fatal("BindNode with metrics-less observer returned nil")
	} else {
		n.LinkFlit(2, 0) // nil counter handles must be tolerated
		n.NIQueueDepth(3)
	}
	// Every exported method of a nil handle is a no-op: core and noc
	// call them unguarded.
	for _, h := range []any{(*RouterObs)(nil), (*NodeObs)(nil)} {
		v := reflect.ValueOf(h)
		for i := 0; i < v.NumMethod(); i++ {
			m, name := v.Method(i), v.Type().Method(i).Name
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("(%T).%s on a nil handle panicked: %v", h, name, p)
					}
				}()
				m.Call(args)
			}()
		}
	}
}

func TestDisabledAllocationFree(t *testing.T) {
	// An unguarded call on a nil handle, as core makes, must not allocate.
	var r *RouterObs
	allocs := testing.AllocsPerRun(1000, func() {
		r.RCCompute(1, 0, 0, 2, false)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f/op", allocs)
	}
}

// TestKindTables holds the Kind, EventKind and StallKind tables to their
// contract: every constant has a distinct, non-empty name; a Kind's name
// prefix names its stage; and StallKind.Kind maps each stall cause to the
// Kind named after it, which keeps the KStall* block contiguous and in
// StallKind order.
func TestKindTables(t *testing.T) {
	distinct := func(what string, n int, name func(int) string) {
		seen := map[string]int{}
		for i := 0; i < n; i++ {
			s := name(i)
			if s == "" {
				t.Errorf("%s %d has no name", what, i)
			} else if j, dup := seen[s]; dup {
				t.Errorf("%s %d and %d are both named %q", what, j, i, s)
			}
			seen[s] = i
		}
	}
	distinct("Kind", NumKinds, func(i int) string { return Kind(i).String() })
	distinct("EventKind", int(numEventKinds), func(i int) string { return EventKind(i).String() })
	distinct("StallKind", NumStallKinds, func(i int) string { return StallKind(i).String() })

	prefix := map[Stage]string{
		StageRC: "rc.", StageVA: "va.", StageSA: "sa.", StageXB: "xb.",
		StageLink: "link.", StageNI: "ni.", StageFault: "fault.", StageStall: "stall.",
	}
	byName := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		byName[k.String()] = k
		if p, ok := prefix[k.Stage()]; !ok || !strings.HasPrefix(k.String(), p) {
			t.Errorf("Kind %d %q is in stage %v, whose names start %q", k, k, k.Stage(), p)
		}
	}
	for s := StallKind(0); s < numStallKinds; s++ {
		if want, ok := byName["stall."+s.String()]; !ok || s.Kind() != want {
			t.Errorf("StallKind %v maps to Kind %q, want the Kind named %q", s, s.Kind(), "stall."+s.String())
		}
	}
}

func TestRouterObsCountsAndTraces(t *testing.T) {
	o := New(64)
	if err := o.Attach(8, 5, 4); err != nil {
		t.Fatal(err)
	}
	r := BindRouter(o, 7, 5, 4)
	r.RCCompute(5, 1, 0, 2, true)
	r.VAAlloc(6, 1, 0, 2, 3)
	r.VABorrow(6, 1, 2, 0)
	r.VABorrowStall(7, 1, 2)
	r.VARetry(7, 2, 1, 3)
	r.SAGrant(8, 1, 0, 2, true)
	r.SABypassGrant(1)
	r.SATransfer(8, 1, 0, 3)
	r.XBTraverse(9, 1, 0, 2, true)

	checks := []struct {
		kind Kind
		port int8
		want uint64
	}{
		{KRCComputes, 1, 1}, {KRCDuplicateUses, 1, 1},
		{KVAAllocs, 1, 1}, {KVA1Borrows, 1, 1}, {KVA1BorrowStalls, 1, 1},
		{KVA2Retries, 2, 3},
		{KSAGrants, 1, 1}, {KSABypassGrants, 1, 1}, {KSATransfers, 1, 1},
		{KFlitsRouted, 2, 1}, {KXBSecondary, 2, 1},
	}
	for _, c := range checks {
		got := o.Metrics.Counter(Key{Kind: c.kind, Router: 7, Port: c.port, VC: NoVC}).Value()
		if got != c.want {
			t.Errorf("%v = %d, want %d", c.kind, got, c.want)
		}
	}
	// Every call above traces except SABypassGrant, which is counter-only
	// (the grant event itself is emitted at stage 2).
	if got := o.Tracer.Total(); got != 8 {
		t.Errorf("trace events = %d, want 8", got)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Cycle: uint64ToCycle(i), Kind: EvXBTraverse, Router: 1})
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if int(e.Cycle) != 6+i {
			t.Fatalf("event %d has cycle %d, want %d (oldest-first order)", i, e.Cycle, 6+i)
		}
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("total/dropped = %d/%d, want 10/6", tr.Total(), tr.Dropped())
	}
}

func TestTracerSetEnabled(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{Cycle: 1})
	tr.SetEnabled(false)
	tr.Emit(Event{Cycle: 2})
	tr.SetEnabled(true)
	tr.Emit(Event{Cycle: 3})
	if got := len(tr.Events()); got != 2 {
		t.Fatalf("retained %d events, want 2 (capture paused for one)", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{Cycle: 12, Kind: EvVABorrow, Router: 5, Port: 2, VC: 1, Arg: 3})
	tr.Emit(Event{Cycle: 13, Kind: EvFaultInject, Router: 5, Port: 2, Detail: "SA1 arbiter"})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		if _, ok := obj["cycle"]; !ok {
			t.Fatalf("line %d missing cycle: %s", lines, sc.Text())
		}
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(Event{Cycle: 12, Kind: EvVABorrow, Router: 5, Port: 2, VC: 1, Arg: 3})
	tr.Emit(Event{Cycle: 14, Kind: EvSABypass, Router: 5, Port: 2, VC: 1, Arg: 4})
	tr.Emit(Event{Cycle: 20, Kind: EvFaultInject, Router: 6, Port: 1, VC: NoVC, Arg: int32(StageXB), Detail: "XB mux E"})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var names []string
	for _, e := range doc.TraceEvents {
		names = append(names, e["name"].(string))
		ph := e["ph"].(string)
		if ph != "X" && ph != "i" && ph != "M" {
			t.Fatalf("unexpected phase %q", ph)
		}
		if e["name"] == "fault inject" {
			if args, _ := e["args"].(map[string]any); args["stage"] != "XB" {
				t.Fatalf("fault inject args %v, want stage XB", e["args"])
			}
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"VA borrow", "SA bypass", "fault inject", "process_name"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing %q in %s", want, joined)
		}
	}
}

func TestFormatPerRouter(t *testing.T) {
	o := New(0)
	r := BindRouter(o, 2, 5, 4)
	r.XBTraverse(1, 0, 0, 1, true)
	r.VABorrow(1, 0, 0, 1)
	txt := FormatPerRouter(o.Metrics, 100)
	if !strings.Contains(txt, "router") || !strings.Contains(txt, "total") {
		t.Fatalf("table malformed:\n%s", txt)
	}
	if !strings.Contains(txt, "0.010") {
		t.Fatalf("utilization column missing:\n%s", txt)
	}
}

// uint64ToCycle documents the int→Cycle conversion in ring tests.
func uint64ToCycle(i int) sim.Cycle { return sim.Cycle(i) }

// TestEventsMergeOrder pins the one read-out order of the event store,
// through both surfaces: each lane oldest first — a wrapped lane from its
// oldest surviving slot — stably by (cycle, router), so a global-lane
// event sorts by its router like any other and a router's same-cycle
// events keep the order it emitted them in (Router.Tick's XB, SA, VA,
// RC), which a kind-first sort would reverse.
func TestEventsMergeOrder(t *testing.T) {
	var emitted []Event
	for c := 1; c <= 6; c++ { // six events into router 1's four slots
		emitted = append(emitted, Event{Cycle: uint64ToCycle(c), Kind: EvNIOffer, Router: 1, Arg: int32(c)})
	}
	for _, k := range []EventKind{EvXBTraverse, EvSAGrant, EvVAAlloc, EvRCCompute} {
		emitted = append(emitted, Event{Cycle: 5, Kind: k, Router: 0})
	}
	emitted = append(emitted, Event{Cycle: 4, Kind: EvFaultDetect, Router: -1, Detail: "monitor"})
	want := []Event{
		{Cycle: 3, Kind: EvNIOffer, Router: 1, Arg: 3},
		{Cycle: 4, Kind: EvFaultDetect, Router: -1, Detail: "monitor"},
		{Cycle: 4, Kind: EvNIOffer, Router: 1, Arg: 4},
		{Cycle: 5, Kind: EvXBTraverse, Router: 0},
		{Cycle: 5, Kind: EvSAGrant, Router: 0},
		{Cycle: 5, Kind: EvVAAlloc, Router: 0},
		{Cycle: 5, Kind: EvRCCompute, Router: 0},
		{Cycle: 5, Kind: EvNIOffer, Router: 1, Arg: 5},
		{Cycle: 6, Kind: EvNIOffer, Router: 1, Arg: 6},
	}

	tr := NewTracer(8)
	if err := (&Observer{Tracer: tr}).Attach(2, 5, 4); err != nil { // four slots per router
		t.Fatal(err)
	}
	f := NewFlightRecorder(2, 4)
	for _, e := range emitted {
		tr.Emit(e)
		f.Record(e)
	}
	if got := tr.Events(); !slices.Equal(got, want) {
		t.Fatalf("Tracer.Events:\n got %+v\nwant %+v", got, want)
	}
	if got := f.Trigger(7, "merge order").Events; !slices.Equal(got, want) {
		t.Fatalf("Dump.Events:\n got %+v\nwant %+v", got, want)
	}
	if tr.Total() != 11 || tr.Dropped() != 2 {
		t.Fatalf("total/dropped = %d/%d, want 11/2", tr.Total(), tr.Dropped())
	}
}

// TestTracerLaneRetention: once attached, a tracer keeps each router's
// last ⌈capacity/nodes⌉ events, so a hot router wraps while a cold one
// keeps everything; Dropped counts only the overwritten slots; a handle
// bound past the sized range records nothing; and a tracer sized for one
// network refuses another.
func TestTracerLaneRetention(t *testing.T) {
	o := &Observer{Tracer: NewTracer(10)}
	if err := o.Attach(4, 5, 4); err != nil { // three slots per router
		t.Fatal(err)
	}
	hot, cold, past := BindRouter(o, 0, 5, 4), BindRouter(o, 1, 5, 4), BindRouter(o, 4, 5, 4)
	for c := 0; c < 7; c++ {
		hot.XBTraverse(uint64ToCycle(c), 1, 0, 2, false)
	}
	cold.XBTraverse(2, 1, 0, 2, false)
	cold.XBTraverse(3, 1, 0, 2, false)
	past.XBTraverse(4, 1, 0, 2, false)

	kept := map[int32][]sim.Cycle{}
	for _, e := range o.Tracer.Events() {
		kept[e.Router] = append(kept[e.Router], e.Cycle)
	}
	if !slices.Equal(kept[0], []sim.Cycle{4, 5, 6}) || !slices.Equal(kept[1], []sim.Cycle{2, 3}) || len(kept) != 2 {
		t.Fatalf("retained %v, want router 0's last three (4 5 6), router 1's two, nothing else", kept)
	}
	if o.Tracer.Total() != 9 || o.Tracer.Dropped() != 4 {
		t.Fatalf("total/dropped = %d/%d, want 9/4", o.Tracer.Total(), o.Tracer.Dropped())
	}
	if err := o.Attach(8, 5, 4); err == nil || !strings.Contains(err.Error(), "Tracer sized for 4 nodes") {
		t.Fatalf("attaching a 4-node tracer to 8 nodes: %v", err)
	}
}

// TestArgLabelsAgree formats the same events through the Chrome writer
// and the dump replay: both label Arg and Arg2 from the one per-kind
// table, stage numbers included.
func TestArgLabelsAgree(t *testing.T) {
	evs := []Event{
		{Cycle: 3, Kind: EvFaultDetect, Router: 1, Port: 2, VC: 0, Arg: int32(StageVA)},
		{Cycle: 4, Kind: EvVAAlloc, Router: 1, Port: 2, VC: 0, Arg: 3, Arg2: 1},
	}
	tr := NewTracer(8)
	for _, e := range evs {
		tr.Emit(e)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	chrome := map[string]map[string]any{}
	for _, e := range doc.TraceEvents {
		chrome[e.Name] = e.Args
	}
	replay := strings.Split(FormatDump(Dump{Reason: "labels", Events: evs}), "\n")
	for i, e := range evs {
		args := chrome[e.Kind.String()]
		for _, label := range []string{e.Kind.argName(), e.Kind.arg2Name()} {
			if label == "" {
				continue
			}
			v, ok := args[label]
			if want := fmt.Sprintf("%s=%v", label, v); !ok || !strings.Contains(replay[2+2*i], want) {
				t.Errorf("%v: Chrome args %v, replay line %q: want both to carry %q", e.Kind, args, replay[2+2*i], want)
			}
		}
	}
	for _, want := range []string{"stage=VA", "dvc=1"} {
		if !strings.Contains(strings.Join(replay, "\n"), want) {
			t.Errorf("replay lacks %q:\n%s", want, strings.Join(replay, "\n"))
		}
	}
}
