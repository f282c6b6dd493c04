package router_test

import (
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/router"
	"gonoc/internal/topology"
)

func TestVAllocStructure(t *testing.T) {
	cfg := router.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	stage1, stage2 := cfg.VA()
	// One stage-1 arbiter per input VC arbitrates over the v downstream VCs.
	if want := (router.Arbiters{Count: cfg.Ports * cfg.VCs, Inputs: cfg.VCs}); stage1 != want {
		t.Errorf("stage 1 %+v, want %+v", stage1, want)
	}
	// One stage-2 arbiter per downstream VC arbitrates over all pi·v input VCs.
	if want := (router.Arbiters{Count: cfg.Ports * cfg.VCs, Inputs: cfg.Ports * cfg.VCs}); stage2 != want {
		t.Errorf("stage 2 %+v, want %+v", stage2, want)
	}
}

func TestVAllocClassStage2Dead(t *testing.T) {
	cfg := router.DefaultConfig() // 2 classes over 4 VCs
	cfg.FaultTolerant = true
	mesh := topology.NewMesh(3, 3)
	r := core.MustNew(4, mesh, cfg)
	r.SetVA2Fault(topology.Port(1), 0, true)
	r.SetVA2Fault(topology.Port(1), 2, true)
	if !r.Functional() {
		t.Fatal("class dead with one of its two arbiters faulty")
	}
	r.SetVA2Fault(topology.Port(1), 1, true)
	if r.Functional() {
		t.Fatal("class 0 not dead with both its arbiters faulty")
	}
	r = core.MustNew(4, mesh, cfg)
	r.SetVA2Fault(topology.Port(1), 2, true)
	r.SetVA2Fault(topology.Port(1), 3, true)
	if r.Functional() {
		t.Fatal("class 1 not dead with both its arbiters faulty")
	}
	r.SetVA2Fault(topology.Port(1), 2, false)
	if !r.Functional() {
		t.Fatal("class 1 wrongly dead")
	}
}

func TestSAllocStructure(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.Validate()
	stage1, stage2 := cfg.SA()
	if want := (router.Arbiters{Count: cfg.Ports, Inputs: cfg.VCs}); stage1 != want {
		t.Errorf("stage 1 %+v, want %+v", stage1, want)
	}
	if want := (router.Arbiters{Count: cfg.Ports, Inputs: cfg.Ports}); stage2 != want {
		t.Errorf("stage 2 %+v, want %+v", stage2, want)
	}
}
