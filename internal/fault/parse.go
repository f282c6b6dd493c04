package fault

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"gonoc/internal/topology"
)

var portNames = map[string]topology.Port{
	"l": topology.Local,
	"n": topology.North,
	"e": topology.East,
	"s": topology.South,
	"w": topology.West,
}

// ParseInjection parses one injection spec and returns the target router
// id and fault site. The grammar, used by noctool's -inject flags:
//
//	<router>:<kind>:<port>[:<index>]
//	<router>:link:<port>
//	<router>:router
//
// router is a node id; kind is one of the mnemonics below; port is a
// compass letter (l, n, e, s, w) or a numeric port id; index is the VC
// index, required for the per-VC kinds (va1, va2) and rejected
// otherwise.
//
//	rc      RCPrimary       rcdup   RCDuplicate
//	va1     VA1ArbSet       va2     VA2Arb
//	sa1     SA1Arb          sa1byp  SA1Bypass
//	sa2     SA2Arb
//	xb      XBMux           xbsec   XBSecondary
//	link    LinkDead        router  RouterDead
//
// The network-level kinds name a dead inter-router link ("3:link:n" —
// the link leaving router 3 northward, severed in both directions; the
// port must be a compass direction, never l) and a completely dead
// router ("5:router" — the only two-field form). They are applied with
// ApplyNetwork rather than Apply.
//
// Examples: "5:sa1:e" (SA1 arbiter, router 5, East input),
// "0:va1:n:2" (VA1 arbiter set of North VC 2, router 0). The mnemonics
// are the kinds table's.
func ParseInjection(spec string) (router int, site Site, err error) {
	fields := strings.Split(spec, ":")
	if len(fields) < 2 || len(fields) > 4 {
		return 0, Site{}, fmt.Errorf("fault spec %q: want <router>:<kind>:<port>[:<index>]", spec)
	}
	router, err = strconv.Atoi(fields[0])
	if err != nil || router < 0 {
		return 0, Site{}, fmt.Errorf("fault spec %q: bad router id %q", spec, fields[0])
	}
	name := strings.ToLower(fields[1])
	kind := Kind(slices.IndexFunc(kinds[:], func(r kindRow) bool { return r.mnemonic == name }))
	if !kind.valid() {
		return 0, Site{}, fmt.Errorf("fault spec %q: unknown kind %q (want rc, rcdup, va1, va2, sa1, sa1byp, sa2, xb, xbsec, link or router)", spec, fields[1])
	}
	site.Kind = kind
	if kind == RouterDead {
		if len(fields) != 2 {
			return 0, Site{}, fmt.Errorf("fault spec %q: kind %q takes no port or index", spec, fields[1])
		}
		return router, site, nil
	}
	if len(fields) < 3 {
		return 0, Site{}, fmt.Errorf("fault spec %q: kind %q needs a port", spec, fields[1])
	}
	if p, ok := portNames[strings.ToLower(fields[2])]; ok {
		site.Port = p
	} else {
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 || n > math.MaxInt8 {
			return 0, Site{}, fmt.Errorf("fault spec %q: bad port %q (want l, n, e, s, w or a port id)", spec, fields[2])
		}
		site.Port = topology.Port(n)
	}
	if kind == LinkDead && (site.Port < topology.North || site.Port > topology.West) {
		return 0, Site{}, fmt.Errorf("fault spec %q: link port must be a mesh direction (n, e, s or w)", spec)
	}
	switch {
	case perVC(kind) && len(fields) != 4:
		return 0, Site{}, fmt.Errorf("fault spec %q: kind %q needs a VC index", spec, fields[1])
	case !perVC(kind) && len(fields) == 4:
		return 0, Site{}, fmt.Errorf("fault spec %q: kind %q takes no VC index", spec, fields[1])
	case len(fields) == 4:
		idx, err := strconv.Atoi(fields[3])
		if err != nil || idx < 0 {
			return 0, Site{}, fmt.Errorf("fault spec %q: bad VC index %q", spec, fields[3])
		}
		site.Index = idx
	}
	return router, site, nil
}

// FormatInjection renders a router id and fault site as an injection
// spec that ParseInjection accepts, the inverse of ParseInjection:
// FormatInjection(ParseInjection(s)) parses back to the same router and
// site. Ports 0-4 render as their compass letters, larger port ids as
// numbers; the VC index is appended exactly for the per-VC kinds.
func FormatInjection(router int, site Site) (string, error) {
	if router < 0 {
		return "", fmt.Errorf("fault: format: bad router id %d", router)
	}
	if !site.Kind.valid() {
		return "", fmt.Errorf("fault: format: unknown kind %v", site.Kind)
	}
	kind := kinds[site.Kind].mnemonic
	if site.Kind == RouterDead {
		if site.Port != 0 || site.Index != 0 {
			return "", fmt.Errorf("fault: format: kind %q takes no port or index", kind)
		}
		return fmt.Sprintf("%d:%s", router, kind), nil
	}
	if site.Kind == LinkDead && (site.Port < topology.North || site.Port > topology.West) {
		return "", fmt.Errorf("fault: format: link port must be a mesh direction, got %d", int(site.Port))
	}
	if site.Port < 0 {
		return "", fmt.Errorf("fault: format: bad port %d", int(site.Port))
	}
	port := strconv.Itoa(int(site.Port))
	for name, p := range portNames {
		if p == site.Port {
			port = name
			break
		}
	}
	if perVC(site.Kind) {
		if site.Index < 0 {
			return "", fmt.Errorf("fault: format: bad VC index %d", site.Index)
		}
		return fmt.Sprintf("%d:%s:%s:%d", router, kind, port, site.Index), nil
	}
	if site.Index != 0 {
		return "", fmt.Errorf("fault: format: kind %q takes no VC index, got %d", kind, site.Index)
	}
	return fmt.Sprintf("%d:%s:%s", router, kind, port), nil
}

// ParseInjections parses a comma-separated list of injection specs.
func ParseInjections(list string) (routers []int, sites []Site, err error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil, nil
	}
	for _, spec := range strings.Split(list, ",") {
		r, s, err := ParseInjection(strings.TrimSpace(spec))
		if err != nil {
			return nil, nil, err
		}
		routers = append(routers, r)
		sites = append(sites, s)
	}
	return routers, sites, nil
}
