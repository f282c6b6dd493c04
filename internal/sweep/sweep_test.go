package sweep

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/traffic"
)

func TestRunOrderPreserved(t *testing.T) {
	got := Run(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d", i, v)
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	if out := Run(0, 4, func(int) int { return 1 }); out != nil {
		t.Fatalf("expected nil, got %v", out)
	}
}

func TestRunEachJobOnce(t *testing.T) {
	var counts [50]int32
	Run(50, 7, func(i int) struct{} {
		atomic.AddInt32(&counts[i], 1)
		return struct{}{}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	out := Run(10, 0, func(i int) int { return i })
	if len(out) != 10 {
		t.Fatalf("len = %d", len(out))
	}
}

func TestRunMoreWorkersThanJobs(t *testing.T) {
	out := Run(3, 100, func(i int) int { return i + 1 })
	if len(out) != 3 || out[2] != 3 {
		t.Fatalf("out = %v", out)
	}
}

func TestMap(t *testing.T) {
	in := []string{"a", "bb", "ccc"}
	out := Map(in, 2, func(s string) int { return len(s) })
	want := []int{1, 2, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestRunParallelismActuallyConcurrent(t *testing.T) {
	// With 4 workers and jobs that block until all 4 started, completion
	// proves concurrency.
	start := make(chan struct{})
	var started atomic.Int32
	done := make(chan struct{})
	go func() {
		Run(4, 4, func(i int) int {
			if started.Add(1) == 4 {
				close(start)
			}
			<-start
			return i
		})
		close(done)
	}()
	<-done
}

// TestRunNestedNetworkWorkers runs a sweep whose jobs each step their
// own network with a sharded compute phase — the two parallelism axes
// composed, as fault campaigns over parallel-stepped networks do. Every
// job must produce the result its seed dictates regardless of how the
// sweep and step goroutines interleave (the race detector covers the
// rest).
func TestRunNestedNetworkWorkers(t *testing.T) {
	const jobs = 6
	run := func(workers int) []string {
		return Run(jobs, 3, func(i int) string {
			rc := router.DefaultConfig()
			rc.FaultTolerant = true
			src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.FixedSize(2), uint64(i)+1)
			src.StopAt(400)
			n := noc.MustNew(noc.Config{Width: 4, Height: 4, Router: rc, Workers: workers}, src)
			defer n.Close()
			n.Run(400)
			if !n.Drain(10000) {
				t.Errorf("job %d did not drain", i)
			}
			return n.Stats().Summary()
		})
	}
	parallel := run(2)
	serial := run(1)
	for i := range parallel {
		if parallel[i] != serial[i] {
			t.Fatalf("job %d: nested parallel stepping changed the result:\n%s\nvs\n%s",
				i, parallel[i], serial[i])
		}
	}
}

// TestRunPanicPropagation: a panicking job must not crash the process
// from a worker goroutine; Run re-panics on the caller's goroutine with
// the job index and the original panic value in the message.
func TestRunPanicPropagation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run swallowed the job panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("re-panic value %T, want string", r)
		}
		if !strings.Contains(msg, "job 13") || !strings.Contains(msg, "boom 13") {
			t.Fatalf("re-panic message missing job context: %q", msg)
		}
	}()
	Run(40, 4, func(i int) int {
		if i == 13 {
			panic(fmt.Sprintf("boom %d", i))
		}
		return i
	})
}

// TestRunPanicStopsDispatch: after a panic is captured, workers stop
// claiming new jobs rather than burning through the remaining queue. Job
// 0 panics and every other job waits until Run has recorded that panic,
// so however the workers are scheduled each of them runs at most the
// one job it held when dispatch stopped: exactly one job at one worker,
// at most one per worker at two.
func TestRunPanicStopsDispatch(t *testing.T) {
	defer func() { panicRecorded = nil }()
	for _, workers := range []int{1, 2} {
		recorded := make(chan struct{})
		panicRecorded = func() { close(recorded) }
		var ran atomic.Int32
		func() {
			defer func() { recover() }()
			Run(1000, workers, func(i int) int {
				ran.Add(1)
				if i == 0 {
					panic("first job dies")
				}
				<-recorded
				return i
			})
		}()
		if n := ran.Load(); n < 1 || int(n) > workers || workers == 1 && n != 1 {
			t.Errorf("%d workers: %d jobs ran around a panic, want 1..%d: dispatch did not stop", workers, n, workers)
		}
	}
}

// TestRunFirstPanicWins: with several panicking jobs, the reported one
// is the first captured, and exactly one panic escapes.
func TestRunFirstPanicWins(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic propagated")
		}
	}()
	Run(8, 8, func(i int) int { panic(i) })
}
