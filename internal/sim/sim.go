// Package sim defines the simulation clock.
//
// gonoc models hardware the way a synchronous RTL simulator does: the
// whole system advances in lock-step cycles, and every timestamp in the
// repo is a Cycle. What steps the network is noc.Network.Step (with Run
// and Drain on top of it): a two-phase cycle — compute, then commit —
// whose compute phase may be sharded across worker goroutines with
// bit-identical results. internal/sweep runs independent simulations
// concurrently above that.
package sim

// Cycle is a simulation timestamp in clock cycles.
type Cycle uint64
