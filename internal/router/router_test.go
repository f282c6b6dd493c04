package router

import (
	"strings"
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
		msg  string // what a refusal must say, when set
	}{
		{"too few ports", func(c *Config) { c.Ports = 2 }, false, ""},
		{"most ports one request word holds", func(c *Config) { c.Ports = maxPorts }, true, ""},
		{"more ports than one request word holds", func(c *Config) { c.Ports = 65 }, false, ""},
		{"no VCs", func(c *Config) { c.VCs = 0 }, false, ""},
		{"most VCs one mask word holds", func(c *Config) { c.VCs = maxVCs }, true, ""},
		{"more VCs than one mask word holds", func(c *Config) { c.VCs = 65; c.Classes = 1 }, false, ""},
		{"no depth", func(c *Config) { c.Depth = 0 }, false, ""},
		{"deepest buffer a 16-bit credit holds", func(c *Config) { c.Depth = 32767 }, true, ""},
		{"deeper than a 16-bit credit holds", func(c *Config) { c.Depth = 32768 }, false, "buffer depth 32768 exceeds 32767"},
		{"longest rotate period 16 bits hold", func(c *Config) { c.BypassRotatePeriod = 32767 }, true, ""},
		{"longer rotate period than 16 bits hold", func(c *Config) { c.BypassRotatePeriod = 32768 }, false, "bypass rotate period 32768 exceeds 32767"},
		{"classes must divide VCs", func(c *Config) { c.VCs = 3; c.Classes = 2 }, false, ""},
		{"single class ok", func(c *Config) { c.Classes = 1 }, true, ""},
		{"four classes over four VCs", func(c *Config) { c.Classes = 4 }, true, ""},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		} else if err != nil && !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: Validate() = %v, want it to say %q", tc.name, err, tc.msg)
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

func TestMessageStrings(t *testing.T) {
	of := OutFlit{Out: topology.East, DownVC: 2}
	c := Credit{In: topology.West, VC: 1, VCFree: true}
	inf := InFlit{In: topology.North, VC: 3}
	if of.String() == "" || c.String() == "" || inf.String() == "" {
		t.Fatal("empty message strings")
	}
}
