package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
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
}

func TestDisabledAllocationFree(t *testing.T) {
	// The nil-guarded call pattern used in core must not allocate.
	var r *RouterObs
	allocs := testing.AllocsPerRun(1000, func() {
		if r != nil {
			r.RCCompute(1, 0, 0, 2, false)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f/op", allocs)
	}
}

func TestRouterObsCountsAndTraces(t *testing.T) {
	o := New(64)
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
	tr.Emit(Event{Cycle: 20, Kind: EvFaultInject, Router: 6, Port: 1, VC: NoVC, Detail: "XB mux E"})
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

func TestSortEventsCanonicalOrder(t *testing.T) {
	// A scrambled multiset of events differing in exactly one field per
	// adjacent canonical pair, including duplicates.
	evs := []Event{
		{Cycle: 7, Router: 0, Kind: EvFaultInject},
		{Cycle: 3, Router: 2, Kind: EvFaultInject, Port: 1},
		{Cycle: 3, Router: 1, Kind: EvFaultInject},
		{Cycle: 3, Router: 2, Kind: EvFaultInject, Port: 1, VC: 2},
		{Cycle: 3, Router: 2, Kind: EvFaultInject, Port: 1, VC: 2, Arg: 5},
		{Cycle: 3, Router: 2, Kind: EvFaultInject, Port: 1, VC: 2, Arg: 5, Arg2: 1},
		{Cycle: 3, Router: 2, Kind: EvFaultInject, Port: 1, VC: 2, Arg: 5, Arg2: 1, Detail: "x"},
		{Cycle: 3, Router: 1, Kind: EvFaultInject},
	}
	SortEvents(evs)
	for i := 1; i < len(evs); i++ {
		if CanonicalLess(evs[i], evs[i-1]) {
			t.Fatalf("events %d and %d out of canonical order: %+v > %+v", i-1, i, evs[i-1], evs[i])
		}
	}
	if evs[len(evs)-1].Cycle != 7 {
		t.Fatalf("cycle is not the primary key: %+v", evs)
	}
	if evs[0] != evs[1] || evs[0].Router != 1 {
		t.Fatalf("duplicate events must sort adjacently: %+v", evs[:2])
	}
}

func TestCanonicalEventsPermutationInvariant(t *testing.T) {
	// Two tracers receive the same multiset in different emission orders
	// (a serial run vs a worker interleaving); the canonical views agree.
	base := []Event{
		{Cycle: 1, Router: 4, Kind: EvFaultInject, Port: 2},
		{Cycle: 1, Router: 0, Kind: EvFaultInject},
		{Cycle: 2, Router: 3, Kind: EvFaultDetect, Arg: 9},
		{Cycle: 1, Router: 0, Kind: EvFaultInject}, // duplicate
	}
	a, b := NewTracer(16), NewTracer(16)
	for _, e := range base {
		a.Emit(e)
	}
	for i := len(base) - 1; i >= 0; i-- {
		b.Emit(base[i])
	}
	ca, cb := a.CanonicalEvents(), b.CanonicalEvents()
	if len(ca) != len(cb) {
		t.Fatalf("lengths differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("event %d differs after canonical sort: %+v vs %+v", i, ca[i], cb[i])
		}
	}
}
