package modelcheck

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"gonoc/internal/noc"
)

// This file keeps the serial explorer that Explore replaced, as an
// oracle: refExplore pops one state at a time from a FIFO queue and keys
// its visited set on the full canonical bytes (key), with no section
// interning and no workers. TestExploreMatchesReference requires
// Explore to return the same Result, field for field, at every worker
// count.

// key builds the canonical state identity: the network's cycle-free
// canonical encoding plus the explorer-side state (injection progress,
// the delivery ledger, the sabotage flag). Two states with equal keys
// have identical futures.
func (m *machine) key(buf []byte) []byte {
	buf = m.n.AppendCanonical(buf[:0])
	for _, c := range m.injected {
		buf = append(buf, c)
	}
	keys := m.keyScratch[:0]
	for k := range m.led.delivered {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	m.keyScratch = keys
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, k)
	}
	if m.sabotaged {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(m.minInjectSrc))
	return buf
}

// refHeld is the serial explorer's frontier entry, which carries its
// depth.
type refHeld struct {
	snap  *noc.Snapshot
	shad  shadow
	id    int32
	depth int
}

func (h *refHeld) bytes() int {
	return int(unsafe.Sizeof(*h)) + h.snap.Bytes() + cap(h.shad)*8
}

// refExplore is the serial FIFO explorer, kept verbatim.
func refExplore(sc Scenario, opt Options) (Result, error) {
	opt = opt.withDefaults()
	start := time.Now()
	m, err := newMachine(&sc, nil)
	if err != nil {
		return Result{}, err
	}
	defer m.Close()

	res := Result{Scenario: sc, Expected: m.expected}
	finish := func(v Verdict, detail string) (Result, error) {
		res.Verdict = v
		res.Detail = detail
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// visited keys on the full canonical bytes, so a hash collision
	// cannot fold two states together.
	visited := make(map[string]int32)
	var states []state
	// frontier is the BFS queue. An expanded entry's snapshot and shadow
	// go to free, and the next new state is saved into them: snapshot
	// storage is allocated PeakFrontier times, not once per state.
	var frontier, free []refHeld
	var frontierBytes int
	var keyBuf []byte

	// discover records the machine's current state, reached from parent
	// by c, and queues it for expansion unless it is terminal.
	discover := func(parent int32, c Choice, depth int) int32 {
		id := int32(len(states))
		visited[string(keyBuf)] = id
		st := state{parent: parent, choice: c, tickSucc: -1, terminal: m.terminal(), full: m.fullyInjected()}
		states = append(states, st)
		res.States++
		if st.terminal {
			res.Terminals++
			return id
		}
		var h refHeld
		if k := len(free) - 1; k >= 0 {
			h, free = free[k], free[:k]
		}
		h = refHeld{id: id, snap: m.n.SnapshotInto(h.snap), shad: m.saveShadow(h.shad), depth: depth}
		frontier = append(frontier, h)
		frontierBytes += h.bytes()
		res.PeakFrontier = max(res.PeakFrontier, len(frontier))
		res.PeakFrontierBytes = max(res.PeakFrontierBytes, frontierBytes)
		return id
	}

	keyBuf = m.key(keyBuf)
	discover(-1, Choice{}, 0)

	// trace reconstructs the choice path from the root to state id.
	trace := func(id int32) []Choice {
		var out []Choice
		for id > 0 {
			out = append(out, states[id].choice)
			id = states[id].parent
		}
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}

	var enabled []Choice
	for len(frontier) > 0 {
		if opt.Budget > 0 && time.Since(start) > opt.Budget {
			return finish(Exhausted, fmt.Sprintf("wall-clock budget %v exhausted at %d states", opt.Budget, res.States))
		}
		// Pop breadth-first: counterexamples come out minimal-depth.
		cur := frontier[0]
		frontier[0] = refHeld{}
		frontier = frontier[1:]
		frontierBytes -= cur.bytes()
		if cur.depth >= opt.MaxDepth {
			return finish(Exhausted, fmt.Sprintf("depth bound %d reached at %d states", opt.MaxDepth, res.States))
		}

		// The enabled set derives from the shadow alone, so the parent
		// network state only needs restoring per applied choice.
		m.restoreShadow(cur.shad)
		enabled = m.choices(enabled)

		for _, c := range enabled {
			m.n.Restore(cur.snap)
			m.restoreShadow(cur.shad)
			m.apply(c)
			res.Transitions++

			keyBuf = m.key(keyBuf)
			// The conversion in the index expression does not allocate;
			// only a new state's key is materialised, in discover.
			id, seen := visited[string(keyBuf)]
			if !seen {
				id = discover(cur.id, c, cur.depth+1)
				if d := cur.depth + 1; d > res.Deepest {
					res.Deepest = d
				}
				if res.States > opt.MaxStates {
					return finish(Exhausted, fmt.Sprintf("state bound %d exceeded", opt.MaxStates))
				}
			}
			if c.Op == OpTick {
				states[cur.id].tickSucc = id
				// A tick self-loop on a fully-injected, non-terminal
				// state is the classical deadlock: no transition
				// remains that could change anything.
				if id == cur.id && states[cur.id].full {
					res.Counterexample = append(trace(cur.id), Choice{Op: OpTick})
					return finish(Deadlocked, fmt.Sprintf(
						"quiescent state with %d/%d packets delivered and %d flits in flight",
						len(m.led.delivered), m.expected, m.n.Stats().InFlight()))
				}
			}
		}
		free = append(free, cur)
	}

	// The space is exhausted. Every fully-injected state's tick chain
	// must reach a terminal-success state; tick is deterministic, so a
	// chain that revisits a state has found a livelock cycle.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(states))
	var chain []int32
	for id := range states {
		if !states[id].full {
			continue
		}
		chain = chain[:0]
		at := int32(id)
		for {
			if states[at].terminal || color[at] == black {
				break
			}
			if color[at] == gray {
				// `at` is on the current chain: a tick cycle. Emit the
				// path to the cycle entry plus one full lap.
				lap := 0
				for i, s := range chain {
					if s == at {
						lap = len(chain) - i
						break
					}
				}
				ce := trace(at)
				for i := 0; i < lap; i++ {
					ce = append(ce, Choice{Op: OpTick})
				}
				res.Counterexample = ce
				return finish(Livelocked, fmt.Sprintf("tick cycle of %d states never completes delivery", lap))
			}
			color[at] = gray
			chain = append(chain, at)
			at = states[at].tickSucc
			if at < 0 {
				// Unexpanded (can only happen under a bound that was
				// already reported); treat as unknown-safe.
				break
			}
		}
		for _, s := range chain {
			color[s] = black
		}
	}

	return finish(Proved, fmt.Sprintf(
		"all %d states deliver %d/%d packets; %d terminal states",
		res.States, m.expected, m.expected, res.Terminals))
}

// refCase is one exploration TestExploreMatchesReference runs on both
// explorers.
type refCase struct {
	name string
	sc   Scenario
	opt  Options
}

// referenceCases are the 22 goldenGraph scenarios, the 2x2 mesh sweep
// with retransmission armed, the planted deadlock, the state and depth
// bounds, and a bounded 2x3. Under -short it keeps one of each kind.
func referenceCases(short bool) []refCase {
	golden := append(SingleFaultSweep(RingOn("", 2, 2)), SingleFaultSweep(RingOn("torus", 2, 2))...)
	retx := RingOn("", 2, 2)
	retx.Retx = noc.RetxConfig{Timeout: 64, MaxRetries: 2}
	armed := SingleFaultSweep(retx)
	if short {
		golden = []Scenario{golden[5], golden[len(golden)-1]}
		armed = []Scenario{armed[len(armed)-1]}
	}
	var out []refCase
	for _, sc := range golden {
		out = append(out, refCase{name: sc.Name, sc: sc})
	}
	for _, sc := range armed {
		out = append(out, refCase{name: sc.Name + "/retx", sc: sc})
	}
	return append(out,
		refCase{name: "sabotage", sc: sabotageScenario()},
		refCase{name: "max-states-8", sc: RingOn("", 2, 2), opt: Options{MaxStates: 8}},
		refCase{name: "max-depth-5", sc: RingOn("", 2, 2), opt: Options{MaxDepth: 5}},
		refCase{name: "ring-2x3/max-states-4096", sc: RingOn("", 2, 3), opt: Options{MaxStates: 1 << 12}},
	)
}

// TestExploreMatchesReference is the differential oracle for the level
// loop and the interned keys: at 1, 2 and 3 workers Explore must return
// refExplore's Result in every field but Elapsed and PeakFrontierBytes
// (the counterexample included), and each goldenGraph row.
func TestExploreMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("the full reference sweep is too slow under -race; TestExploreWorkers is the race-feasible subset")
	}
	for _, tc := range referenceCases(testing.Short()) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := refExplore(tc.sc, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			_, golden := goldenGraph[tc.name]
			for _, workers := range []int{1, 2, 3} {
				opt := tc.opt
				opt.workers = workers
				got, err := Explore(tc.sc, opt)
				if err != nil {
					t.Fatal(err)
				}
				if golden {
					checkGolden(t, got)
				}
				if diff := resultDiff(got, want); diff != "" {
					t.Errorf("workers=%d: %s", workers, diff)
				}
			}
		})
	}
}

// resultDiff names the first Result field in which got and want differ,
// Elapsed and PeakFrontierBytes excepted, or returns "".
func resultDiff(got, want Result) string {
	got.Elapsed, want.Elapsed = 0, 0
	got.PeakFrontierBytes, want.PeakFrontierBytes = 0, 0
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("%s = %v, reference %v", gv.Type().Field(i).Name, g, w)
		}
	}
	return ""
}
