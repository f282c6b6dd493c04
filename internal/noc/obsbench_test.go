package noc

import (
	"fmt"
	"testing"
	"time"

	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/traffic"
)

// observedNetwork builds a side×side protected mesh offered uniform
// traffic at rate, one worker, with observability off (mode 0), counters
// and windows on (1), or the flight recorder armed as well (2), and runs
// it past its fill transient. At side 32 and rate 0.004 it is the
// mesh32_observed configuration.
func observedNetwork(b *testing.B, side int, rate float64, mode int) *Network {
	b.Helper()
	const warm = 1000
	nodes := side * side
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	if mode > 0 {
		o := obs.New(1)
		o.Tracer.SetEnabled(false)
		o.Windows = obs.NewWindows(nodes, rc.Ports, rc.VCs, obs.DefaultBucketCycles, obs.DefaultWindowBucket)
		if mode > 1 {
			o.Flight = obs.NewFlightRecorder(nodes, obs.DefaultFlightEvents)
		}
		rc.Obs = o
	}
	src := traffic.NewSynthetic(nodes, rate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), 2014)
	n, err := New(Config{Width: side, Height: side, Router: rc, Workers: 1}, src)
	if err != nil {
		b.Fatal(err)
	}
	n.Run(warm)
	return n
}

// BenchmarkStepObserved measures what leaving the lights on costs at
// steady state, on three mesh sizes each at about a quarter of its
// saturation rate: at 8×8 every node's observability state stays in the
// L2 cache between its events, so that row is the per-event instruction
// floor, and what 32×32 and 64×64 add above it is the cost of state
// that fell out of cache. Per size, the three observability modes step
// the same workload in interleaved turns of one process, so a slow
// stretch of the host lands on all three alike; a turn is 256,000
// router-cycles (250 cycles at 32×32), so an iteration is the same work
// at every size. Each row reports the modes' router-cycles/s and the two
// overheads against lights-off.
func BenchmarkStepObserved(b *testing.B) {
	for _, sz := range []struct {
		side int
		rate float64
	}{{8, 0.016}, {32, 0.004}, {64, 0.002}} {
		b.Run(fmt.Sprintf("mesh-%dx%d", sz.side, sz.side), func(b *testing.B) {
			benchStepObserved(b, sz.side, sz.rate)
		})
	}
}

func benchStepObserved(b *testing.B, side int, rate float64) {
	turn := 250 * 1024 / (side * side)
	modes := [3]string{"off", "obs", "flight"}
	var nets [3]*Network
	for m := range nets {
		nets[m] = observedNetwork(b, side, rate, m)
		defer nets[m].Close()
	}
	var wall [3]time.Duration
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		for m, n := range nets {
			before := b.Elapsed()
			b.StartTimer()
			n.Run(sim.Cycle(turn))
			b.StopTimer()
			wall[m] += b.Elapsed() - before
		}
	}
	work := float64(b.N * turn * len(nets[0].routers))
	for m, name := range modes {
		b.ReportMetric(work/wall[m].Seconds(), name+"-router-cycles/s")
	}
	b.ReportMetric((wall[1].Seconds()/wall[0].Seconds()-1)*100, "obs-overhead-%")
	b.ReportMetric((wall[2].Seconds()/wall[0].Seconds()-1)*100, "flight-overhead-%")
}
