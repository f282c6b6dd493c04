// Package router provides the structural building blocks of the NoC
// router microarchitecture: configuration, the routing-computation units,
// the allocator arbiter arrays with their fault flags, and the message
// types exchanged between a router and its links.
//
// The behavioural pipeline — how these blocks are exercised each cycle,
// including the paper's fault-tolerance mechanisms — lives in
// internal/core.
package router

import (
	"fmt"

	"gonoc/internal/obs"
)

// Config describes a router instance. The paper's evaluation point is the
// default: a 5-port router with 4 VCs of depth 4 per input port.
type Config struct {
	// Ports is the router radix (5 for a 2-D mesh: L, N, E, S, W).
	Ports int
	// VCs is the number of virtual channels per input port.
	VCs int
	// Depth is the per-VC buffer depth in flits.
	Depth int
	// Classes is the number of message classes (virtual networks). VCs
	// are partitioned evenly across classes so that requests and
	// responses never share a VC, which breaks protocol deadlock.
	// Classes must divide VCs.
	Classes int
	// FaultTolerant selects the paper's protected router; false selects
	// the unprotected baseline.
	FaultTolerant bool
	// BypassRotatePeriod is how many bypass grants the SA stage-1 default
	// winner serves before rotating (Section V-C1's anti-starvation
	// rotation). Values < 1 default to 16.
	BypassRotatePeriod int
	// Obs enables the observability layer (internal/obs): routers bind
	// per-component counter handles and emit trace events to it. Leave
	// nil — the default — for a metrics-free simulation; the
	// instrumented paths then cost a single pointer test per site.
	Obs *obs.Observer
}

// maxVCs is the largest VC count per input port: the core router keeps
// one occupancy bit per VC in a single 64-bit word per port. maxPorts is
// the largest port count: an output port's switch-allocation request set
// is one bit per input port in a single word.
const (
	maxVCs   = 64
	maxPorts = 64
)

// DefaultConfig returns the paper's 5×5, 4-VC, depth-4 configuration.
func DefaultConfig() Config {
	return Config{Ports: 5, VCs: 4, Depth: 4, Classes: 2, BypassRotatePeriod: 16}
}

// Validate checks the configuration and fills defaults. It returns an
// error describing the first problem found.
func (c *Config) Validate() error {
	if c.Ports < 3 {
		return fmt.Errorf("router: need at least 3 ports, got %d", c.Ports)
	}
	if c.Ports > maxPorts {
		return fmt.Errorf("router: at most %d ports (one request word), got %d", maxPorts, c.Ports)
	}
	if c.VCs < 1 {
		return fmt.Errorf("router: need at least 1 VC, got %d", c.VCs)
	}
	if c.VCs > maxVCs {
		return fmt.Errorf("router: at most %d VCs per port (one occupancy-mask word), got %d", maxVCs, c.VCs)
	}
	if c.Depth < 1 {
		return fmt.Errorf("router: need buffer depth >= 1, got %d", c.Depth)
	}
	if c.Classes < 1 {
		c.Classes = 1
	}
	if c.VCs%c.Classes != 0 {
		return fmt.Errorf("router: %d classes must divide %d VCs", c.Classes, c.VCs)
	}
	if c.BypassRotatePeriod < 1 {
		c.BypassRotatePeriod = 16
	}
	return nil
}

// ClassRange returns the half-open VC index range [lo, hi) reserved for
// message class cls.
func (c Config) ClassRange(cls int) (lo, hi int) {
	per := c.VCs / c.Classes
	return cls * per, (cls + 1) * per
}

// ClassOf returns the message class that VC index v belongs to.
func (c Config) ClassOf(v int) int {
	per := c.VCs / c.Classes
	return v / per
}
