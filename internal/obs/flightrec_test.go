package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestFlightRecorderRingAndTrigger(t *testing.T) {
	f := NewFlightRecorder(2, 4)
	// Overfill node 0's lane: only the 4 newest survive.
	for i := 0; i < 7; i++ {
		f.Record(Event{Cycle: uint64ToCycle(i), Kind: EvXBTraverse, Router: 0, Port: 1})
	}
	// One event on node 1, one network-global (router out of range).
	f.Record(Event{Cycle: 3, Kind: EvNIEject, Router: 1})
	f.Record(Event{Cycle: 5, Kind: EvFaultDetect, Router: -1, Detail: "monitor"})

	if got := f.Total(); got != 9 {
		t.Fatalf("Total = %d, want 9 (overwrites still count)", got)
	}
	d := f.Trigger(6, "test trigger")
	if d.Cycle != 6 || d.Reason != "test trigger" {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Events) != 6 {
		t.Fatalf("dump has %d events, want 6 (4 retained + 1 + 1)", len(d.Events))
	}
	if !slices.IsSortedFunc(d.Events, mergeCmp) {
		t.Fatalf("dump events not in merge order: %+v", d.Events)
	}
	// Node 0's lane kept cycles 3..6, dropping 0..2.
	oldest := uint64ToCycle(99)
	for _, e := range d.Events {
		if e.Router == 0 && e.Cycle < oldest {
			oldest = e.Cycle
		}
	}
	if oldest != 3 {
		t.Fatalf("node 0's oldest retained cycle = %d, want 3", oldest)
	}
	if ds := f.Dumps(); len(ds) != 1 || ds[0].Reason != "test trigger" {
		t.Fatalf("Dumps() = %+v, want the one trigger", ds)
	}
}

func TestFlightRecorderDumpCap(t *testing.T) {
	f := NewFlightRecorder(1, 2)
	for i := 0; i < maxFlightDumps+3; i++ {
		f.Trigger(uint64ToCycle(i), "again")
	}
	if got := len(f.Dumps()); got != maxFlightDumps {
		t.Fatalf("retained %d dumps, want cap %d", got, maxFlightDumps)
	}
}

func TestFlightDumpRoundTrip(t *testing.T) {
	f := NewFlightRecorder(2, 8)
	f.Record(Event{Cycle: 10, Kind: EvVAAlloc, Router: 0, Port: 2, VC: 1, Arg: 3, Arg2: 2})
	f.Record(Event{Cycle: 11, Kind: EvFaultInject, Router: 1, Port: 4, VC: NoVC, Detail: "SA1 arbiter"})
	d1 := f.Trigger(12, "first")
	f.Record(Event{Cycle: 13, Kind: EvNIRetransmit, Router: 1, Port: NoPort, VC: NoVC, Arg: 0, Arg2: 1})
	d2 := f.Trigger(14, "second")

	var buf bytes.Buffer
	if err := WriteDumps(&buf, []Dump{d1, d2}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDumps(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d dumps, want 2", len(back))
	}
	for i, want := range []Dump{d1, d2} {
		got := back[i]
		if got.Cycle != want.Cycle || got.Reason != want.Reason || len(got.Events) != len(want.Events) {
			t.Fatalf("dump %d header mangled: %+v vs %+v", i, got, want)
		}
		for j := range got.Events {
			if got.Events[j] != want.Events[j] {
				t.Fatalf("dump %d event %d: %+v != %+v", i, j, got.Events[j], want.Events[j])
			}
		}
	}
}

func TestFormatDump(t *testing.T) {
	f := NewFlightRecorder(1, 8)
	f.Record(Event{Cycle: 7, Kind: EvSAGrant, Router: 0, Port: 1, VC: 2, Arg: 3})
	f.Record(Event{Cycle: 8, Kind: EvFaultDetect, Router: 0, Port: 2, VC: 0, Arg: 2, Detail: "watchdog"})
	f.Record(Event{Cycle: 8, Kind: EvFaultInject, Router: 0, Port: 3, VC: NoVC, Arg: 3, Detail: "XB mux"})
	txt := FormatDump(f.Trigger(9, "unit test"))
	for _, want := range []string{"unit test", "cycle 7:", "cycle 8:", "SA grant", "fault detect", "watchdog", "stage=XB"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("formatted dump missing %q:\n%s", want, txt)
		}
	}
}
