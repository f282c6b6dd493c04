package fault

import (
	"testing"

	"gonoc/internal/topology"
)

func TestParseInjection(t *testing.T) {
	cases := []struct {
		spec   string
		router int
		site   Site
	}{
		{"5:sa1:e", 5, Site{Kind: SA1Arb, Port: topology.East}},
		{"0:rc:l", 0, Site{Kind: RCPrimary, Port: topology.Local}},
		{"12:rcdup:W", 12, Site{Kind: RCDuplicate, Port: topology.West}},
		{"3:va1:n:2", 3, Site{Kind: VA1ArbSet, Port: topology.North, Index: 2}},
		{"3:va2:s:0", 3, Site{Kind: VA2Arb, Port: topology.South, Index: 0}},
		{"7:sa1byp:1", 7, Site{Kind: SA1Bypass, Port: topology.North}},
		{"7:sa2:w", 7, Site{Kind: SA2Arb, Port: topology.West}},
		{"1:xb:e", 1, Site{Kind: XBMux, Port: topology.East}},
		{"1:xbsec:4", 1, Site{Kind: XBSecondary, Port: topology.West}},
	}
	for _, c := range cases {
		r, s, err := ParseInjection(c.spec)
		if err != nil {
			t.Errorf("ParseInjection(%q): %v", c.spec, err)
			continue
		}
		if r != c.router || s != c.site {
			t.Errorf("ParseInjection(%q) = %d, %+v; want %d, %+v", c.spec, r, s, c.router, c.site)
		}
	}
}

func TestParseInjectionErrors(t *testing.T) {
	bad := []string{
		"",            // empty
		"5:sa1",       // missing port
		"5:sa1:e:1",   // index on indexless kind
		"5:va1:e",     // missing required index
		"x:sa1:e",     // bad router
		"-1:sa1:e",    // negative router
		"5:nope:e",    // unknown kind
		"5:sa1:q",     // bad port letter
		"5:sa1:-2",    // negative port
		"5:sa1:256",   // a port id no byte holds (it would wrap to Local)
		"5:va1:e:x",   // bad index
		"5:va1:e:-1",  // negative index
		"5:sa1:e:1:2", // too many fields
	}
	for _, spec := range bad {
		if _, _, err := ParseInjection(spec); err == nil {
			t.Errorf("ParseInjection(%q) succeeded, want error", spec)
		}
	}
}

func TestParseInjections(t *testing.T) {
	routers, sites, err := ParseInjections("5:sa1:e, 0:va1:n:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(routers) != 2 || routers[0] != 5 || routers[1] != 0 {
		t.Errorf("routers = %v", routers)
	}
	if sites[0].Kind != SA1Arb || sites[1].Kind != VA1ArbSet || sites[1].Index != 1 {
		t.Errorf("sites = %+v", sites)
	}

	if r, s, err := ParseInjections(""); err != nil || r != nil || s != nil {
		t.Errorf("empty list: %v %v %v, want all nil", r, s, err)
	}
	if _, _, err := ParseInjections("5:sa1:e,bogus"); err == nil {
		t.Error("bogus tail accepted")
	}
}

// TestParseNetworkInjections covers the network-level kinds: link faults
// need a mesh-direction port, router faults take no port at all, and
// both round-trip through FormatInjection.
func TestParseNetworkInjections(t *testing.T) {
	good := []struct {
		spec   string
		router int
		site   Site
	}{
		{"5:link:n", 5, Site{Kind: LinkDead, Port: topology.North}},
		{"5:link:e", 5, Site{Kind: LinkDead, Port: topology.East}},
		{"12:LINK:3", 12, Site{Kind: LinkDead, Port: topology.South}},
		{"0:link:w", 0, Site{Kind: LinkDead, Port: topology.West}},
		{"10:router", 10, Site{Kind: RouterDead}},
		{"0:ROUTER", 0, Site{Kind: RouterDead}},
	}
	for _, c := range good {
		r, s, err := ParseInjection(c.spec)
		if err != nil {
			t.Errorf("ParseInjection(%q): %v", c.spec, err)
			continue
		}
		if r != c.router || s != c.site {
			t.Errorf("ParseInjection(%q) = %d, %+v; want %d, %+v", c.spec, r, s, c.router, c.site)
		}
		if !s.Kind.Network() {
			t.Errorf("%q: Kind.Network() = false", c.spec)
		}
		out, err := FormatInjection(r, s)
		if err != nil {
			t.Errorf("FormatInjection(%q): %v", c.spec, err)
			continue
		}
		r2, s2, err := ParseInjection(out)
		if err != nil || r2 != r || s2 != s {
			t.Errorf("round trip %q -> %q -> %d, %+v (%v)", c.spec, out, r2, s2, err)
		}
	}
	bad := []string{
		"5:link",     // link needs a port
		"5:link:l",   // local is not a mesh link
		"5:link:0",   // numeric local port
		"5:link:e:1", // link takes no VC index
		"5:router:n", // router takes no port
		"5:router:0", // router takes no numeric port either
		"5:router:e:1",
	}
	for _, spec := range bad {
		if _, _, err := ParseInjection(spec); err == nil {
			t.Errorf("ParseInjection(%q) succeeded, want error", spec)
		}
	}
}

// TestKindTable: every kind has a distinct name and a distinct mnemonic,
// and a site of it formats to a spec that parses back to it.
func TestKindTable(t *testing.T) {
	names, mnemonics := map[string]bool{}, map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		row := kinds[k]
		if row.name == "" || row.mnemonic == "" || names[row.name] || mnemonics[row.mnemonic] {
			t.Errorf("kind %d: name %q, mnemonic %q: empty or taken", k, row.name, row.mnemonic)
		}
		names[row.name], mnemonics[row.mnemonic] = true, true
		site := Site{Kind: k, Port: topology.North}
		switch {
		case k == RouterDead:
			site.Port = 0
		case row.perVC:
			site.Index = 3
		}
		spec, err := FormatInjection(2, site)
		if err != nil {
			t.Errorf("FormatInjection(%v): %v", site, err)
			continue
		}
		if r, got, err := ParseInjection(spec); err != nil || r != 2 || got != site {
			t.Errorf("%q parses to %d, %+v, %v; want 2, %+v", spec, r, got, err, site)
		}
	}
}
