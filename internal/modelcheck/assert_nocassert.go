//go:build nocassert

package modelcheck

// assertEnabled gates the explorer's check of the key words it keeps
// from a parent: this build has the nocassert tag, so every successor's
// nodes are encoded again and held to the words of its key
// (worker.assertKept), next to the network's own per-tick assertions.
const assertEnabled = true
