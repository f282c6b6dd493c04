//go:build !nocassert

package modelcheck

// assertEnabled gates the explorer's check of the key words it keeps
// from a parent (see assert_nocassert.go). Without the nocassert build
// tag it is a false constant and the check is dead code.
const assertEnabled = false
