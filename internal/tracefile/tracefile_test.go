package tracefile

import (
	"bytes"
	"cmp"
	"slices"
	"strings"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/traffic"
)

func TestWriteReadRoundTrip(t *testing.T) {
	in := []traffic.TraceEntry{
		{Cycle: 9, Src: 2, Dst: 0, Size: 2, Class: flit.Response},
		{Cycle: 5, Src: 1, Dst: 2, Size: 3, Class: flit.Request},
		{Cycle: 5, Src: 0, Dst: 3, Size: 1, Class: flit.Request},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Output is sorted (cycle, src).
	want := []traffic.TraceEntry{in[2], in[1], in[0]}
	if len(got) != len(want) {
		t.Fatalf("got %d entries", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadIgnoresCommentsAndBlanks(t *testing.T) {
	src := "# gonoc-trace v1\n\n# a comment\n3,0,1,0,1\n"
	got, err := Read(strings.NewReader(src))
	if err != nil || len(got) != 1 {
		t.Fatalf("Read = (%v, %v)", got, err)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"not,a,trace",
		"1,0,1,0,0",                    // size 0
		"1,0,1,9,1",                    // bad class
		"1,-1,1,0,1",                   // negative src
		"1,0,1,0,1,zzz",                // a sixth field
		"5,2,1,0,1 trailing",           // junk after the fifth integer
		"1,0,1,0,200000000",            // a packet no replay could segment
		"1,0,1,0",                      // truncated row
		"-1,0,1,0,1",                   // negative cycle
		"1,0,1,0,99999999999999999999", // size overflows int
	} {
		_, err := Read(strings.NewReader("# gonoc-trace v1\n" + bad + "\n"))
		if err == nil {
			t.Errorf("accepted malformed line %q", bad)
		} else if !strings.HasPrefix(err.Error(), "tracefile: line 2: ") || strings.Contains(err.Error(), "\n") {
			t.Errorf("line %q: error %q is not a one-line \"tracefile: line 2: ...\" message", bad, err)
		}
	}
	if got, err := Read(strings.NewReader(" 7, 1, 2, 0, 1024 \n")); err != nil || len(got) != 1 || got[0].Size != MaxSize {
		t.Errorf("Read of a spaced record at the size limit = (%v, %v)", got, err)
	}
}

func TestRecorderCapturesOfferedAndReplies(t *testing.T) {
	// Record a closed-loop run, then verify the captured entry counts
	// match the network's packet accounting exactly.
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	inner := traffic.NewSynthetic(16, 0.03, traffic.Uniform(16), traffic.FixedSize(2), 4)
	inner.StopAt(1500)
	rec := NewRecorder(inner)
	n := noc.MustNew(noc.Config{Width: 4, Height: 4, Router: rc, Warmup: 0}, rec)
	n.Run(1500)
	n.Drain(10000)
	if uint64(len(rec.Entries())) != n.Stats().Created() {
		t.Fatalf("recorded %d entries, network created %d", len(rec.Entries()), n.Stats().Created())
	}
}

func TestRecordedTraceReplaysIdentically(t *testing.T) {
	// The headline property: replaying a recorded trace through an
	// identical network reproduces identical latency statistics.
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	cfg := noc.Config{Width: 4, Height: 4, Router: rc, Warmup: 0}

	inner := traffic.NewSynthetic(16, 0.03, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.5), 9)
	inner.StopAt(2000)
	rec := NewRecorder(inner)
	n1 := noc.MustNew(cfg, rec)
	n1.Run(2000)
	if !n1.Drain(20000) {
		t.Fatal("original run did not drain")
	}

	// Serialize and re-read, then replay.
	var buf bytes.Buffer
	if err := Write(&buf, rec.Entries()); err != nil {
		t.Fatal(err)
	}
	entries, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n2 := noc.MustNew(cfg, traffic.NewTrace(entries))
	n2.Run(2000)
	if !n2.Drain(20000) {
		t.Fatal("replay did not drain")
	}

	s1, s2 := n1.Stats(), n2.Stats()
	if s1.Created() != s2.Created() || s1.Ejected() != s2.Ejected() {
		t.Fatalf("packet counts differ: (%d,%d) vs (%d,%d)",
			s1.Created(), s1.Ejected(), s2.Created(), s2.Ejected())
	}
	if s1.AvgLatency() != s2.AvgLatency() {
		t.Fatalf("latency differs: %v vs %v", s1.AvgLatency(), s2.AvgLatency())
	}
}

func TestReplayAgainstDifferentConfig(t *testing.T) {
	// A trace recorded once can drive a different configuration — here a
	// faulted network — holding offered traffic exactly constant.
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	cfg := noc.Config{Width: 4, Height: 4, Router: rc, Warmup: 0}

	inner := traffic.NewSynthetic(16, 0.03, traffic.Uniform(16), traffic.FixedSize(3), 11)
	inner.StopAt(1500)
	rec := NewRecorder(inner)
	n1 := noc.MustNew(cfg, rec)
	n1.Run(1500)
	n1.Drain(20000)
	clean := n1.Stats().AvgLatency()

	n2 := noc.MustNew(cfg, traffic.NewTrace(rec.Entries()))
	for id := 0; id < 16; id++ {
		n2.Router(id).SetSA1Fault(1, true) // port North
	}
	n2.Run(1500)
	if !n2.Drain(40000) {
		t.Fatal("faulted replay did not drain")
	}
	if n2.Stats().AvgLatency() <= clean {
		t.Fatalf("faulted replay latency %v not above clean %v", n2.Stats().AvgLatency(), clean)
	}
}

// FuzzTraceFileRead feeds Read arbitrary bytes: it must never panic,
// every entry it accepts must be within the bounds it enforces, and
// writing the accepted entries back must read back as the same entries in
// Write's (cycle, src) order.
func FuzzTraceFileRead(f *testing.F) {
	f.Add([]byte(header + "\n"))
	f.Add([]byte("1,0,1,0,1\n3,-1,2,0,1\n"))
	f.Add([]byte("18446744073709551615,2,0,1,1024\n"))
	f.Add([]byte("1,0,1,0\n"))
	f.Add([]byte(header + "\r\n9,2,0,1,2\r\n5,1,2,0,3\r\n5,0,3,0,1\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, e := range entries {
			if e.Size < 1 || e.Size > MaxSize || e.Src < 0 || e.Dst < 0 || int(e.Class) >= flit.NumClasses {
				t.Fatalf("entry %d out of bounds: %+v", i, e)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, entries); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read rejects what Write wrote: %v", err)
		}
		want := slices.Clone(entries)
		slices.SortStableFunc(want, func(a, b traffic.TraceEntry) int {
			return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Src, b.Src))
		})
		if !slices.Equal(back, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", back, want)
		}
	})
}
