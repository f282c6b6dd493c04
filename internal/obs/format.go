package obs

import (
	"fmt"
	"strings"
)

// FormatPerRouter renders the per-router counter table printed by
// `noctool observe metrics`: one row per router with the crossbar throughput and
// every fault-tolerance mechanism activation, plus a totals row. cycles
// scales the utilization column (crossbar flits per cycle); pass 0 to
// omit it.
func FormatPerRouter(m *Metrics, cycles uint64) string {
	rows := m.PerRouter()
	var b strings.Builder
	fmt.Fprintf(&b, "per-router observability counters\n")
	fmt.Fprintf(&b, "%6s %8s %6s %6s %9s %8s %8s %7s %7s %6s %7s %7s\n",
		"router", "flits", "util", "rc.dup", "va.borrow", "va.stall",
		"va.retry", "sa.byp", "sa.xfer", "xb.sec", "faults", "detect")
	var tot RouterTotals
	for _, r := range rows {
		if r.Router < 0 {
			continue // network-global series have no router row
		}
		for k := 0; k < NumKinds; k++ {
			tot.Total[k] += r.Total[k]
		}
		fmt.Fprintf(&b, "%6d %8d %6s %6d %9d %8d %8d %7d %7d %6d %7d %7d\n",
			r.Router,
			r.Total[KFlitsRouted], util(r.Total[KFlitsRouted], cycles),
			r.Total[KRCDuplicateUses],
			r.Total[KVA1Borrows], r.Total[KVA1BorrowStalls], r.Total[KVA2Retries],
			r.Total[KSABypassGrants], r.Total[KSATransfers],
			r.Total[KXBSecondary],
			r.Total[KFaultsInjected]+r.Total[KFaultsTransient],
			r.Total[KFaultsDetected])
	}
	fmt.Fprintf(&b, "%6s %8d %6s %6d %9d %8d %8d %7d %7d %6d %7d %7d\n",
		"total",
		tot.Total[KFlitsRouted], util(tot.Total[KFlitsRouted], cycles),
		tot.Total[KRCDuplicateUses],
		tot.Total[KVA1Borrows], tot.Total[KVA1BorrowStalls], tot.Total[KVA2Retries],
		tot.Total[KSABypassGrants], tot.Total[KSATransfers],
		tot.Total[KXBSecondary],
		tot.Total[KFaultsInjected]+tot.Total[KFaultsTransient],
		tot.Total[KFaultsDetected])

	// Network-fault recovery section, only when any of its counters moved
	// (a run with no dead links/routers keeps the classic table shape).
	netKinds := []Kind{KReroutes, KLinkDrops, KDropsUnreachable, KNIRetransmits, KNIDupsSuppressed}
	var any uint64
	for _, k := range netKinds {
		any += tot.Total[k]
	}
	if any > 0 {
		fmt.Fprintf(&b, "\nnetwork-fault recovery counters\n")
		fmt.Fprintf(&b, "%6s %8s %9s %7s %7s %7s\n",
			"router", "reroute", "link.drop", "unreach", "ni.retx", "ni.dup")
		for _, r := range rows {
			if r.Router < 0 {
				continue
			}
			var rowAny uint64
			for _, k := range netKinds {
				rowAny += r.Total[k]
			}
			if rowAny == 0 {
				continue // only routers the recovery machinery touched
			}
			fmt.Fprintf(&b, "%6d %8d %9d %7d %7d %7d\n",
				r.Router, r.Total[KReroutes], r.Total[KLinkDrops],
				r.Total[KDropsUnreachable], r.Total[KNIRetransmits],
				r.Total[KNIDupsSuppressed])
		}
		fmt.Fprintf(&b, "%6s %8d %9d %7d %7d %7d\n",
			"total", tot.Total[KReroutes], tot.Total[KLinkDrops],
			tot.Total[KDropsUnreachable], tot.Total[KNIRetransmits],
			tot.Total[KNIDupsSuppressed])
	}
	return b.String()
}

// util formats flits-per-cycle, or "-" when cycles is unknown.
func util(flits, cycles uint64) string {
	if cycles == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(flits)/float64(cycles))
}
