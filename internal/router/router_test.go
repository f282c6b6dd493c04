package router

import (
	"testing"

	"gonoc/internal/topology"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.Ports != 5 || cfg.VCs != 4 || cfg.Depth != 4 {
		t.Fatalf("default config is not the paper's design point: %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"too few ports", func(c *Config) { c.Ports = 2 }, false},
		{"most ports one request word holds", func(c *Config) { c.Ports = maxPorts }, true},
		{"more ports than one request word holds", func(c *Config) { c.Ports = 65 }, false},
		{"no VCs", func(c *Config) { c.VCs = 0 }, false},
		{"most VCs one mask word holds", func(c *Config) { c.VCs = maxVCs }, true},
		{"more VCs than one mask word holds", func(c *Config) { c.VCs = 65; c.Classes = 1 }, false},
		{"no depth", func(c *Config) { c.Depth = 0 }, false},
		{"classes must divide VCs", func(c *Config) { c.VCs = 3; c.Classes = 2 }, false},
		{"single class ok", func(c *Config) { c.Classes = 1 }, true},
		{"four classes over four VCs", func(c *Config) { c.Classes = 4 }, true},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestValidateFillsDefaults(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 4, Depth: 4}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Classes != 1 {
		t.Errorf("Classes defaulted to %d, want 1", cfg.Classes)
	}
	if cfg.BypassRotatePeriod != 16 {
		t.Errorf("BypassRotatePeriod defaulted to %d, want 16", cfg.BypassRotatePeriod)
	}
}

func TestClassRangeAndClassOf(t *testing.T) {
	cfg := DefaultConfig() // 4 VCs, 2 classes
	lo, hi := cfg.ClassRange(0)
	if lo != 0 || hi != 2 {
		t.Errorf("class 0 range [%d, %d)", lo, hi)
	}
	lo, hi = cfg.ClassRange(1)
	if lo != 2 || hi != 4 {
		t.Errorf("class 1 range [%d, %d)", lo, hi)
	}
	for v := 0; v < cfg.VCs; v++ {
		want := 0
		if v >= 2 {
			want = 1
		}
		if got := cfg.ClassOf(v); got != want {
			t.Errorf("ClassOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestClassRangePartitionProperty(t *testing.T) {
	// Every VC belongs to exactly one class and ClassOf agrees with
	// ClassRange, for all valid (VCs, Classes) combinations.
	for vcs := 1; vcs <= 8; vcs++ {
		for classes := 1; classes <= vcs; classes++ {
			if vcs%classes != 0 {
				continue
			}
			cfg := Config{Ports: 5, VCs: vcs, Depth: 2, Classes: classes}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("vcs=%d classes=%d: %v", vcs, classes, err)
			}
			covered := make([]int, vcs)
			for cls := 0; cls < classes; cls++ {
				lo, hi := cfg.ClassRange(cls)
				for v := lo; v < hi; v++ {
					covered[v]++
					if cfg.ClassOf(v) != cls {
						t.Fatalf("vcs=%d classes=%d: ClassOf(%d)=%d want %d",
							vcs, classes, v, cfg.ClassOf(v), cls)
					}
				}
			}
			for v, c := range covered {
				if c != 1 {
					t.Fatalf("vcs=%d classes=%d: VC %d covered %d times", vcs, classes, v, c)
				}
			}
		}
	}
}

func TestRCUnitRedundancy(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	u := NewRCUnit(mesh, true)
	if !u.Usable() {
		t.Fatal("fresh unit unusable")
	}
	port, ok := u.Compute(4, 5)
	if !ok || port != topology.East {
		t.Fatalf("Compute = (%v, %v)", port, ok)
	}
	u.SetFaulty(0, true)
	if !u.Usable() || u.Faulty(1) {
		t.Fatal("duplicate should cover primary fault")
	}
	if port, ok = u.Compute(4, 5); !ok || port != topology.East {
		t.Fatalf("duplicate Compute = (%v, %v)", port, ok)
	}
	u.SetFaulty(1, true)
	if u.Usable() {
		t.Fatal("usable with both copies faulty")
	}
	if _, ok = u.Compute(4, 5); ok {
		t.Fatal("Compute succeeded with both copies faulty")
	}
	// Repair the primary: usable again.
	u.SetFaulty(0, false)
	if !u.Usable() {
		t.Fatal("not usable after repair")
	}
}

func TestRCUnitBaselineNoDuplicate(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	u := NewRCUnit(mesh, false)
	u.SetFaulty(0, true)
	if u.Usable() {
		t.Fatal("baseline unit usable after its only copy failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("marking nonexistent duplicate did not panic")
		}
	}()
	u.SetFaulty(1, true)
}

func TestVAllocStructure(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	va := NewVAlloc(cfg)
	// Stage 1 arbiters arbitrate over the v downstream VCs.
	if got := va.Stage1(0, 0).Inputs(); got != cfg.VCs {
		t.Errorf("stage-1 width %d, want %d", got, cfg.VCs)
	}
	// Stage 2 arbiters arbitrate over all pi·v input VCs.
	if got := va.Stage2(0, 0).Inputs(); got != cfg.Ports*cfg.VCs {
		t.Errorf("stage-2 width %d, want %d", got, cfg.Ports*cfg.VCs)
	}
	if va.String() == "" {
		t.Error("empty String")
	}
}

func TestVAllocPortStage1Dead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Validate()
	va := NewVAlloc(cfg)
	for v := 0; v < cfg.VCs-1; v++ {
		va.SetStage1Faulty(2, v, true)
	}
	if va.PortStage1Dead(2) {
		t.Fatal("port dead with one arbiter set left")
	}
	va.SetStage1Faulty(2, cfg.VCs-1, true)
	if !va.PortStage1Dead(2) {
		t.Fatal("port not dead with all sets faulty")
	}
	if va.PortStage1Dead(1) {
		t.Fatal("wrong port reported dead")
	}
}

func TestVAllocClassStage2Dead(t *testing.T) {
	cfg := DefaultConfig() // 2 classes over 4 VCs
	cfg.Validate()
	va := NewVAlloc(cfg)
	va.Stage2(1, 0).SetFaulty(true)
	if va.ClassStage2Dead(1, 0) {
		t.Fatal("class dead with one of two arbiters faulty")
	}
	va.Stage2(1, 1).SetFaulty(true)
	if !va.ClassStage2Dead(1, 0) {
		t.Fatal("class 0 not dead with both its arbiters faulty")
	}
	if va.ClassStage2Dead(1, 1) {
		t.Fatal("class 1 wrongly dead")
	}
}

func TestSAllocStructure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Validate()
	sa := NewSAlloc(cfg)
	if got := sa.Stage1(0).Arb.Inputs(); got != cfg.VCs {
		t.Errorf("stage-1 width %d, want %d", got, cfg.VCs)
	}
	if got := sa.Stage2(0).Inputs(); got != cfg.Ports {
		t.Errorf("stage-2 width %d, want %d", got, cfg.Ports)
	}
}

func TestMessageStrings(t *testing.T) {
	of := OutFlit{Out: topology.East, DownVC: 2}
	c := Credit{In: topology.West, VC: 1, VCFree: true}
	inf := InFlit{In: topology.North, VC: 3}
	if of.String() == "" || c.String() == "" || inf.String() == "" {
		t.Fatal("empty message strings")
	}
}
