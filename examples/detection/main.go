// Detection demonstrates the fault lifecycle around the paper's router:
// transient faults striking and being masked (Section I's second fault
// class), permanent faults accumulating under the protected router's
// mechanisms, and — when a router finally exhausts its redundancy — the
// watchdog layer (the NoCAlert role of the paper's reference [18])
// detecting and localizing the failure online.
package main

import (
	"fmt"

	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
	"gonoc/internal/watchdog"
)

func main() {
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	rc.Classes = 1
	rc.Obs = obs.New(0) // the link counters the closing heatmap draws
	cfg := noc.Config{Width: 4, Height: 4, Router: rc, Warmup: 0}
	src := traffic.NewSynthetic(16, 0.015, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 99)
	n := noc.MustNew(cfg, src)

	mon := watchdog.New(n, 250)
	trans := fault.NewTransientInjector(n, 0.002, 8, 7)

	fmt.Println("phase 1 — transient storm, all masked")
	n.Run(10_000)
	fmt.Printf("  %d transient strikes, %d packets delivered, watchdog reports: %d\n",
		trans.Strikes, n.Stats().Ejected(), len(mon.Suspects()))
	trans.Rate = 0 // storm over

	fmt.Println("phase 2 — permanent faults accumulate, mechanisms mask them")
	inj := fault.NewInjector(n, 800, 13, true) // safe-only: never breaks a router
	n.Run(10_000)
	fmt.Printf("  %d permanent faults injected, network functional: %v, watchdog reports: %d\n",
		len(inj.Injected()), n.Functional(), len(mon.Suspects()))

	fmt.Println("phase 3 — a router exhausts its redundancy")
	victim := n.Router(5)
	victim.SetRCFault(topology.West, 0, true)
	victim.SetRCFault(topology.West, 1, true) // both copies: RC at West is dead
	n.Run(10_000)
	fmt.Printf("  router 5 functional: %v\n", victim.Functional())
	if sus := mon.SuspectsAt(5); len(sus) > 0 {
		fmt.Printf("  watchdog localized it: %v\n", sus[0])
	} else {
		fmt.Println("  (no flow crossed the dead port yet — run longer to see a report)")
	}

	fmt.Println()
	fmt.Print(n.Heatmap())
}
