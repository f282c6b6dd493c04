package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"gonoc/internal/modelcheck"
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

// runCheck is the model-checking tier's CLI: it exhaustively explores
// the w x h ring scenario fault free and under every single link and
// router fault, proving deadlock freedom and full delivery, and exits
// non-zero with a replayable counterexample trace on any violation.
func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	w := fs.Int("w", 2, "grid width")
	h := fs.Int("h", 2, "grid height")
	topoFlag := fs.String("topo", "mesh", "topology family: mesh or torus (a torus sweep includes every wrap link)")
	maxStates := fs.Int("max-states", 1<<22, "distinct-state cap per scenario")
	maxDepth := fs.Int("max-depth", 4096, "transition-depth cap per scenario")
	budget := fs.Duration("budget", 0, "wall-clock budget per scenario (0 = none)")
	retxTimeout := fs.Uint64("retx-timeout", 0, "NI retransmission timeout in cycles (0 = off)")
	retxRetries := fs.Int("retx-retries", 0, "max retransmissions per packet (needs -retx-timeout)")
	mcWalks := fs.Int("mc", 0, "Monte-Carlo mode: sample this many random walks per scenario instead of exhausting (for meshes beyond exhaustive reach)")
	mcSeed := fs.Uint64("seed", 1, "random seed for -mc")
	sabotage := fs.Int("sabotage", -1, "arm the credit-loss sabotage transition at this node (expects a DEADLOCK verdict; checker self-test)")
	crossval := fs.Bool("crossval", false, "also cross-check the faults-to-failure campaign against the exact combinatorial mean")
	trials := fs.Int("trials", 4000, "campaign trials for -crossval")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *crossval && *trials < 1 {
		return fmt.Errorf("-trials must be >= 1, got %d", *trials)
	}
	retx := noc.RetxConfig{Timeout: sim.Cycle(*retxTimeout), MaxRetries: *retxRetries}
	opt := modelcheck.Options{MaxStates: *maxStates, MaxDepth: *maxDepth, Budget: *budget}
	if _, err := topology.New(*topoFlag, *w, *h); err != nil {
		return err
	}

	if *sabotage >= 0 {
		sc := modelcheck.RingOn(*topoFlag, *w, *h)
		sc.Name = fmt.Sprintf("%s-sabotage-%d", sc.Name, *sabotage)
		sc.VCs, sc.Classes, sc.Depth = 1, 1, 1
		sc.SabotageNode = *sabotage
		// Three packets in sequence over the sabotaged node's first hop
		// through depth-1 single-VC buffers: one lost credit permanently
		// starves the followers. A single packet per link would survive.
		dst := (*sabotage + 1) % (*w * *h)
		sc.Packets = nil
		for i := 0; i < 3; i++ {
			sc.Packets = append(sc.Packets, modelcheck.Packet{Src: *sabotage, Dst: dst, Size: 1})
		}
		res, err := modelcheck.Explore(sc, opt)
		if err != nil {
			return err
		}
		fmt.Print(modelcheck.FormatResults([]modelcheck.Result{res}))
		if res.Verdict != modelcheck.Deadlocked && res.Verdict != modelcheck.Livelocked {
			return fmt.Errorf("sabotage self-test expected a violation, got %v", res.Verdict)
		}
		fmt.Println("\nsabotage self-test: violation found and replayed, as expected")
		return nil
	}

	if *mcWalks > 0 {
		sc := modelcheck.RingOn(*topoFlag, *w, *h)
		sc.Retx = retx
		res, err := modelcheck.MonteCarlo(sc, modelcheck.MCOptions{Walks: *mcWalks, Seed: *mcSeed})
		if err != nil {
			return err
		}
		fmt.Println(res)
		if res.Violations > 0 {
			return fmt.Errorf("%d delivery violations; first walk: %v", res.Violations, res.FirstViolation)
		}
		return crossvalIfAsked(*crossval, *trials, *mcSeed)
	}

	start := time.Now()
	results, err := modelcheck.CheckTopo(*topoFlag, *w, *h, retx, opt)
	if err != nil {
		return err
	}
	fmt.Print(modelcheck.FormatResults(results))
	states, proved, peakBytes := 0, 0, 0
	var exploring time.Duration
	for _, r := range results {
		states += r.States
		exploring += r.Elapsed
		peakBytes = max(peakBytes, r.PeakFrontierBytes)
		switch r.Verdict {
		case modelcheck.Proved:
			proved++
		case modelcheck.Deadlocked, modelcheck.Livelocked:
			return fmt.Errorf("%s: %v — counterexample above", r.Scenario.Name, r.Verdict)
		case modelcheck.Exhausted:
			return fmt.Errorf("%s: exploration bound hit (%s); raise -max-states/-budget or use -mc", r.Scenario.Name, r.Detail)
		}
	}
	kind := *topoFlag
	if kind == "" {
		kind = "mesh"
	}
	fmt.Printf("\nPROVED %d/%d scenarios (%d states total, %.0f states/s on %d workers, peak frontier %s) in %v: deadlock freedom and full delivery on the %dx%d %s, fault free and under every single link/router fault\n",
		proved, len(results), states, float64(states)/exploring.Seconds(), runtime.GOMAXPROCS(0), modelcheck.FormatBytes(peakBytes), time.Since(start).Round(time.Millisecond), *w, *h, kind)
	return crossvalIfAsked(*crossval, *trials, *mcSeed)
}

func crossvalIfAsked(run bool, trials int, seed uint64) error {
	if !run {
		return nil
	}
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	cc := modelcheck.CrossValidate(cfg, trials, seed, 4)
	fmt.Println(cc)
	if !cc.OK {
		return fmt.Errorf("reliability cross-check failed")
	}
	return nil
}
