package noc

import (
	"testing"
	"time"

	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/traffic"
)

// observedNetwork builds the mesh32_observed configuration — 32×32
// protected mesh at a quarter of its saturation rate, one worker — with
// observability off (mode 0), counters and windows on (1), or the flight
// recorder armed as well (2), and runs it past its fill transient.
func observedNetwork(b *testing.B, mode int) *Network {
	b.Helper()
	const side, warm = 32, 1000
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
	src := traffic.NewSynthetic(nodes, 0.004, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), 2014)
	n, err := New(Config{Width: side, Height: side, Router: rc, Workers: 1}, src)
	if err != nil {
		b.Fatal(err)
	}
	n.Run(warm)
	return n
}

// BenchmarkStepObserved measures what leaving the lights on costs at
// steady state: the three observability modes step the same workload in
// interleaved 250-cycle turns of one process, so a slow stretch of the
// host lands on all three alike. It reports each mode's router-cycles/s
// and the two overheads against lights-off.
func BenchmarkStepObserved(b *testing.B) {
	const turn = 250
	modes := [3]string{"off", "obs", "flight"}
	var nets [3]*Network
	for m := range nets {
		nets[m] = observedNetwork(b, m)
		defer nets[m].Close()
	}
	var wall [3]time.Duration
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		for m, n := range nets {
			before := b.Elapsed()
			b.StartTimer()
			n.Run(turn)
			b.StopTimer()
			wall[m] += b.Elapsed() - before
		}
	}
	work := float64(b.N) * turn * float64(len(nets[0].routers))
	for m, name := range modes {
		b.ReportMetric(work/wall[m].Seconds(), name+"-router-cycles/s")
	}
	b.ReportMetric((wall[1].Seconds()/wall[0].Seconds()-1)*100, "obs-overhead-%")
	b.ReportMetric((wall[2].Seconds()/wall[0].Seconds()-1)*100, "flight-overhead-%")
}
