package main

import (
	"flag"
	"fmt"
	"os"

	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/sim"
	"gonoc/internal/watchdog"
)

// flightrecView runs with the bounded flight recorder armed and a
// watchdog as the anomaly trigger: every suspect the watchdog raises
// freezes the recent event history into a dump. Dumps are written as
// JSON Lines (-o) and can be replayed later with -replay, which formats
// a dump file cycle by cycle without running anything.
func flightrecView(fs *flag.FlagSet) func(*simFlags) (plan, error) {
	events := fs.Int("events", obs.DefaultFlightEvents, "flight-recorder events retained per router lane")
	out := fs.String("o", "flight.jsonl", "dump output file (JSON Lines)")
	threshold := fs.Uint64("watchdog", 1000,
		"watchdog non-progress threshold in cycles triggering a dump (0 disables the watchdog)")
	final := fs.Bool("final", false, "also dump the recorder at the end of the run")
	replay := fs.String("replay", "", "format an existing dump file and exit (no simulation)")
	return func(*simFlags) (plan, error) {
		if *replay != "" {
			return plan{}, replayFlightDumps(*replay)
		}
		var mon *watchdog.Monitor
		return plan{
			newObs: func(nodes int) (*obs.Observer, error) {
				err := ringFlag("events", *events, 1, float64(nodes)*float64(*events)*float64(obs.EventSlotBytes),
					fmt.Sprintf("%d nodes × %d events × %d B", nodes, *events, obs.EventSlotBytes))
				if err != nil {
					return nil, err
				}
				o := obs.New(0)
				o.Flight = obs.NewFlightRecorder(nodes, *events)
				return o, nil
			},
			attach: func(n *noc.Network) {
				if *threshold > 0 {
					mon = watchdog.New(n, sim.Cycle(*threshold))
				}
			},
			print: func(n *noc.Network, o *obs.Observer) error {
				if *final {
					n.TriggerFlightDump("end of run")
				}
				dumps := o.Flight.Dumps()
				if mon != nil {
					fmt.Printf("watchdog: %d suspects raised\n", len(mon.Suspects()))
				}
				fmt.Printf("flight recorder: %d events recorded, %d dumps captured\n",
					o.Flight.Total(), len(dumps))
				if len(dumps) == 0 {
					fmt.Println("no dump written (no anomaly tripped; -final forces an end-of-run dump)")
					return nil
				}
				f, err := os.Create(*out)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := obs.WriteDumps(f, dumps); err != nil {
					return err
				}
				for _, d := range dumps {
					fmt.Printf("  cycle %d: %s (%d events)\n", d.Cycle, d.Reason, len(d.Events))
				}
				fmt.Printf("wrote %d dumps to %s (replay with: noctool observe flightrec -replay %s)\n",
					len(dumps), *out, *out)
				return nil
			},
		}, nil
	}
}

// replayFlightDumps formats a dump file for reading: one cycle-grouped
// event listing per dump.
func replayFlightDumps(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dumps, err := obs.ReadDumps(f)
	if err != nil {
		return err
	}
	for i, d := range dumps {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(obs.FormatDump(d))
	}
	fmt.Printf("%d dumps replayed from %s\n", len(dumps), path)
	return nil
}
