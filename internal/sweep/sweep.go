// Package sweep runs independent simulation jobs in parallel — parameter
// sweeps, per-application experiments, Monte-Carlo campaigns — each on
// its own goroutine with its own network and its own deterministically
// derived seed. It composes with the other parallelism axis, the
// network's sharded compute phase (noc.Config.Workers): a sweep of
// many small networks wants serial stepping (StepWorkers/Workers = 1)
// to avoid oversubscription, while a few large networks want the
// opposite. Results are bit-identical either way.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
)

// jobPanic carries a worker panic back to Run's caller with the job that
// caused it, instead of crashing the process from a worker goroutine
// with a scheduler-mangled trace.
type jobPanic struct {
	job   int
	value any
}

// panicRecorded, when non-nil, is called once Run has recorded the
// first job panic, before the panicking worker moves on: a test hook
// that lets a test hold the other jobs until dispatch must stop.
var panicRecorded func()

// Run executes job(0..n-1) on up to workers goroutines and returns the
// results in index order. workers <= 0 selects GOMAXPROCS. Jobs must be
// independent; each should derive any randomness from its index so the
// sweep is deterministic regardless of scheduling.
//
// A panicking job does not kill the process from inside a worker:
// the first panic (by completion order) is captured with its job index,
// the remaining workers wind down, and Run re-panics on the caller's
// goroutine with the job index prepended to the original value.
func Run[T any](n, workers int, job func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	var next int
	var failed *jobPanic
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || failed != nil
				mu.Unlock()
				if stop {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							first := failed == nil
							if first {
								failed = &jobPanic{job: i, value: r}
							}
							mu.Unlock()
							if first && panicRecorded != nil {
								panicRecorded()
							}
						}
					}()
					results[i] = job(i)
				}()
			}
		}()
	}
	wg.Wait()
	if failed != nil {
		panic(fmt.Sprintf("sweep: job %d panicked: %v", failed.job, failed.value))
	}
	return results
}

// Map applies job to each input in parallel, preserving order.
func Map[In, Out any](inputs []In, workers int, job func(In) Out) []Out {
	return Run(len(inputs), workers, func(i int) Out { return job(inputs[i]) })
}
