package canon

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestVarintsMatchBinary holds the one-byte fast paths to the general
// encoding: every section, key and StateHash is built from these bytes.
func TestVarintsMatchBinary(t *testing.T) {
	ints := []int{0, 1, -1, 63, -64, 64, -65, 127, 128, -128, 300, -300, 1 << 20, math.MaxInt64, math.MinInt64}
	for v := -200; v <= 200; v++ {
		ints = append(ints, v)
	}
	for _, v := range ints {
		if got, want := Int([]byte{9}, v), binary.AppendVarint([]byte{9}, int64(v)); !bytes.Equal(got, want) {
			t.Errorf("Int(%d) = %x, want %x", v, got, want)
		}
		u := uint64(v)
		if got, want := Uint([]byte{9}, u), binary.AppendUvarint([]byte{9}, u); !bytes.Equal(got, want) {
			t.Errorf("Uint(%d) = %x, want %x", u, got, want)
		}
	}
}
