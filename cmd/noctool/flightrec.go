package main

import (
	"flag"
	"fmt"
	"os"

	"gonoc/internal/obs"
	"gonoc/internal/sim"
	"gonoc/internal/watchdog"
)

// runFlightrec runs a simulation with the bounded flight recorder armed
// and a watchdog as the anomaly trigger: every suspect the watchdog
// raises freezes the recent event history into a dump. Dumps are written
// as JSON Lines (-o) and can be replayed later with -replay, which
// formats a dump file cycle by cycle without running anything.
func runFlightrec(args []string) error {
	fs := flag.NewFlagSet("flightrec", flag.ContinueOnError)
	sf := addSimFlags(fs)
	events := fs.Int("events", obs.DefaultFlightEvents, "flight-recorder events retained per router lane")
	out := fs.String("o", "flight.jsonl", "dump output file (JSON Lines)")
	threshold := fs.Uint64("watchdog", 1000,
		"watchdog non-progress threshold in cycles triggering a dump (0 disables the watchdog)")
	final := fs.Bool("final", false, "also dump the recorder at the end of the run")
	replay := fs.String("replay", "", "format an existing dump file and exit (no simulation)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replay != "" {
		return replayFlightDumps(*replay)
	}
	o, err := sf.observer(recorders{flight: true, flightEvents: *events})
	if err != nil {
		return err
	}
	n, err := sf.build(o)
	if err != nil {
		return err
	}
	defer n.Close()
	var mon *watchdog.Monitor
	if *threshold > 0 {
		mon = watchdog.New(n, sim.Cycle(*threshold))
	}
	n.Run(sim.Cycle(*sf.cycles))
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
	fmt.Printf("wrote %d dumps to %s (replay with: noctool flightrec -replay %s)\n",
		len(dumps), *out, *out)
	return nil
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
