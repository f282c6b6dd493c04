// Package tracefile records and replays packet traces. The paper's
// latency study is trace-driven (GEM5 produces the benchmark traffic that
// GARNET then routes); this package provides the equivalent workflow for
// gonoc: capture the packets a workload offers during one simulation,
// persist them in a simple CSV format, and replay them later — against a
// different router configuration, fault scenario or build — with the
// offered traffic held exactly constant.
//
// The format is one record per packet:
//
//	cycle,src,dst,class,size
//
// with an optional "# gonoc-trace v1" comment header. CSV keeps traces
// greppable and diffable; traces compress extremely well if stored at
// rest.
package tracefile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gonoc/internal/flit"
	"gonoc/internal/noc"
	"gonoc/internal/sim"
	"gonoc/internal/traffic"
)

// header is the optional first line of a trace file.
const header = "# gonoc-trace v1"

// Write serializes entries (sorted by cycle, then source) to w.
func Write(w io.Writer, entries []traffic.TraceEntry) error {
	sorted := make([]traffic.TraceEntry, len(entries))
	copy(sorted, entries)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Cycle != sorted[j].Cycle {
			return sorted[i].Cycle < sorted[j].Cycle
		}
		return sorted[i].Src < sorted[j].Src
	})
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, header); err != nil {
		return err
	}
	for _, e := range sorted {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%d,%d\n",
			e.Cycle, e.Src, e.Dst, int(e.Class), e.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MaxSize is the largest packet, in flits, Read accepts. A record is a
// dozen bytes but replaying it segments Size flits at once, so without a
// bound a one-line file can ask for any amount of memory; every workload
// gonoc records stays under ten flits.
const MaxSize = 1024

// Read parses a trace from r. Blank lines and '#' comments are ignored;
// every other line must be exactly five comma-separated integers.
func Read(r io.Reader) ([]traffic.TraceEntry, error) {
	var out []traffic.TraceEntry
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 5 {
			return nil, fmt.Errorf("tracefile: line %d: want cycle,src,dst,class,size, got %d fields in %q", line, len(fields), text)
		}
		cyc, err := strconv.ParseUint(strings.TrimSpace(fields[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tracefile: line %d: bad cycle: %v", line, err)
		}
		var v [4]int // src, dst, class, size
		for i := range v {
			if v[i], err = strconv.Atoi(strings.TrimSpace(fields[i+1])); err != nil {
				return nil, fmt.Errorf("tracefile: line %d: %v", line, err)
			}
		}
		src, dst, cls, size := v[0], v[1], v[2], v[3]
		if size < 1 || src < 0 || dst < 0 || cls < 0 || cls >= flit.NumClasses {
			return nil, fmt.Errorf("tracefile: line %d: invalid record %q", line, text)
		}
		if size > MaxSize {
			return nil, fmt.Errorf("tracefile: line %d: packet size %d above the %d-flit limit", line, size, MaxSize)
		}
		out = append(out, traffic.TraceEntry{
			Cycle: sim.Cycle(cyc),
			Src:   src,
			Dst:   dst,
			Class: flit.Class(cls),
			Size:  size,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Recorder wraps a noc.Traffic source, recording every packet it offers
// (including closed-loop replies) so the offered workload can be
// persisted and replayed. Attach it between the workload and the network:
//
//	rec := tracefile.NewRecorder(src)
//	n := noc.MustNew(cfg, rec)
//	... run ...
//	tracefile.Write(f, rec.Entries())
type Recorder struct {
	inner noc.Traffic
	log   []traffic.TraceEntry
}

// NewRecorder wraps inner.
func NewRecorder(inner noc.Traffic) *Recorder { return &Recorder{inner: inner} }

// Offered implements noc.Traffic.
func (r *Recorder) Offered(node int, c sim.Cycle) []*flit.Packet {
	ps := r.inner.Offered(node, c)
	r.record(node, c, ps)
	return ps
}

// OnEject implements noc.Traffic, recording replies at the ejecting node.
func (r *Recorder) OnEject(p *flit.Packet, c sim.Cycle) []*flit.Packet {
	ps := r.inner.OnEject(p, c)
	r.record(p.Dst, c, ps)
	return ps
}

func (r *Recorder) record(node int, c sim.Cycle, ps []*flit.Packet) {
	for _, p := range ps {
		r.log = append(r.log, traffic.TraceEntry{
			Cycle: c, Src: node, Dst: p.Dst, Class: p.Class, Size: p.Size,
		})
	}
}

// Entries returns the recorded trace.
func (r *Recorder) Entries() []traffic.TraceEntry {
	out := make([]traffic.TraceEntry, len(r.log))
	copy(out, r.log)
	return out
}
