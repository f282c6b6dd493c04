package noc

// MidDiscard reports whether some packet is being discarded at a dead
// link at this step boundary — head dropped, tail still to come — which
// is exactly when a linkDrop bit is set. Test-only: the external
// conformance suite uses it to snapshot inside a discard.
func (n *Network) MidDiscard() bool {
	for _, w := range n.linkDrop {
		if w != 0 {
			return true
		}
	}
	return false
}
