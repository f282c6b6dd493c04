package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// slice is one piece of a timed region: the work it covered (router-cycles
// for the simulation workloads, states for the model checker) and the
// host time it took. Host-speed metrics are taken from the median slice,
// so one descheduled slice does not move them.
type slice struct {
	work, secs float64
}

// timed runs f and returns the host seconds it took.
func timed(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs, or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianRate returns the median of work/secs over the slices.
func medianRate(slices []slice) float64 {
	rates := make([]float64, len(slices))
	for i, s := range slices {
		rates[i] = s.work / s.secs
	}
	return median(rates)
}

// tailPercentile returns the highest whole percentile of xs that still
// has at least ten samples beyond it, and its value (nearest rank). With
// fewer than eleven samples there is no such percentile and ok is false.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	pct = 100 * (n - 10) / n
	s := sorted(xs)
	rank := int(math.Ceil(float64(n) * float64(pct) / 100))
	return pct, s[max(rank, 1)-1], true
}

// memMark is a reading of the allocator's monotonic counters.
type memMark struct {
	mallocs, bytes uint64
}

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

// since returns the allocations made after the earlier mark.
func (m memMark) since(earlier memMark) memMark {
	return memMark{mallocs: m.mallocs - earlier.mallocs, bytes: m.bytes - earlier.bytes}
}

// liveHeapMB forces a collection and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// nsPerOp times f, which must perform n operations, and returns the
// median over three samples of the host nanoseconds per operation. n is
// grown until one sample lasts at least minSample, so the clock's
// resolution never dominates.
func nsPerOp(f func(n int)) float64 {
	const minSample = 8 * time.Millisecond
	n := 1
	for {
		t := time.Now()
		f(n)
		if d := time.Since(t); d >= minSample || n >= 1<<28 {
			break
		} else if d < minSample/16 {
			n *= 16
		} else {
			n *= 2
		}
	}
	samples := make([]float64, 3)
	for i := range samples {
		samples[i] = timed(func() { f(n) }) * 1e9 / float64(n)
	}
	return median(samples)
}

// allocsPerOp returns the heap objects f allocates per call, averaged
// over n calls.
func allocsPerOp(n int, f func()) float64 {
	before := markMem()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(markMem().since(before).mallocs) / float64(n)
}

// sampleSetup measures a workload's construction cost: the median of seven
// samples, each of which repeats build for at least 100 ms and divides by
// the repeat count.
func sampleSetup(build func() error) (float64, error) {
	const (
		samples   = 7
		minSample = 100 * time.Millisecond
	)
	out := make([]float64, samples)
	for i := range out {
		t := time.Now()
		n := 0
		for time.Since(t) < minSample {
			if err := build(); err != nil {
				return 0, err
			}
			n++
		}
		out[i] = time.Since(t).Seconds() / float64(n)
	}
	return median(out), nil
}
