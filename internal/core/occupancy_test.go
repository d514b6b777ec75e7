package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"evilbloom/internal/bitset"
	"evilbloom/internal/hashes"
)

// countingFromWords builds an m-counter filter of the given width whose
// storage words are words (cycled to fill the array), loaded through the
// snapshot path so any bit pattern — including bits past the last counter —
// can be planted.
func countingFromWords(tb testing.TB, width int, m uint64, words []uint64) *Counting {
	tb.Helper()
	fam, err := hashes.NewDoubleHashing(3, m, 42)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := NewCounting(fam, width, Wrap)
	if err != nil {
		tb.Fatal(err)
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	for i := range c.counters.words {
		var w uint64
		if len(words) > 0 {
			w = words[i%len(words)]
		}
		binary.LittleEndian.PutUint64(blob[countingSnapshotHeader+8*i:], w)
	}
	if err := c.UnmarshalBinary(blob); err != nil {
		tb.Fatal(err)
	}
	return c
}

// checkOccupancy compares OccupancyBits and Weight against the per-counter
// reference: bit i set iff Counter(i) is non-zero.
func checkOccupancy(tb testing.TB, c *Counting) {
	tb.Helper()
	want := bitset.New(c.M())
	for i := uint64(0); i < c.M(); i++ {
		if c.Counter(i) != 0 {
			want.Set(i)
		}
	}
	got := c.OccupancyBits()
	if !got.Equal(want) {
		for i := uint64(0); i < c.M(); i++ {
			if got.Test(i) != want.Test(i) {
				tb.Fatalf("width %d, m %d: position %d: occupancy bit %v, counter %d",
					c.counters.width, c.M(), i, got.Test(i), c.Counter(i))
			}
		}
		tb.Fatalf("width %d, m %d: occupancy differs past the last counter", c.counters.width, c.M())
	}
	if w := c.Weight(); w != want.Weight() {
		tb.Fatalf("width %d, m %d: Weight %d, reference %d", c.counters.width, c.M(), w, want.Weight())
	}
}

// The word-parallel kernel must agree with the per-counter reference on the
// patterns that break a wrong fold or gather: one high bit per lane, every
// counter at its maximum, a trimmed tail word carrying bits past the last
// counter, and the straddling widths that keep the per-counter loop.
func TestOccupancyBitsMatchesReference(t *testing.T) {
	const ones = ^uint64(0)
	rows := []struct {
		name  string
		width int
		m     uint64
		words []uint64
	}{
		{"high-bit-lanes/w4", 4, 1024, []uint64{0x8888888888888888}},
		{"high-bit-alternate-lanes/w4", 4, 1024, []uint64{0x0808080808080808, 0x8080808080808080}},
		{"high-bit-lanes/w16", 16, 1024, []uint64{0x8000800080008000}},
		{"high-bit-one-lane/w16", 16, 1024, []uint64{0x0000800000000000, 0}},
		{"high-bit-lanes/w2", 2, 1024, []uint64{0xaaaaaaaaaaaaaaaa}},
		{"high-bit-lanes/w8", 8, 1024, []uint64{0x8000800080008000}},
		{"max/w1", 1, 1024, []uint64{ones}},
		{"max/w2", 2, 1024, []uint64{ones}},
		{"max/w4", 4, 1024, []uint64{ones}},
		{"max/w8", 8, 1024, []uint64{ones}},
		{"max/w16", 16, 1024, []uint64{ones}},
		{"max/w3", 3, 1024, []uint64{ones}},
		{"trimmed-tail/w1", 1, 1000, []uint64{ones}},
		{"trimmed-tail/w2", 2, 1001, []uint64{ones}},
		{"trimmed-tail/w4", 4, 83, []uint64{ones}},
		{"trimmed-tail/w8", 8, 1003, []uint64{0x0100000000000000}},
		{"trimmed-tail/w16", 16, 5, []uint64{ones}},
		{"sparse/w4", 4, 4096, []uint64{0, 0, 0x10, 0, 0, 0, 0, 0xf000000000000000}},
		{"straddle/w3", 3, 517, []uint64{0x9249249249249249, 0, ones}},
		{"straddle/w5", 5, 517, []uint64{0x8421084210842108, 0, ones}},
		{"straddle/w7", 7, 517, []uint64{0x0102040810204081, 0, 0x4000000000000000}},
		{"straddle-max/w7", 7, 100, []uint64{ones}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			checkOccupancy(t, countingFromWords(t, r.width, r.m, r.words))
		})
	}
}

// FuzzOccupancyBits checks OccupancyBits and Weight against the
// per-counter reference for any width, size and counter contents.
func FuzzOccupancyBits(f *testing.F) {
	f.Add(uint8(4), uint16(1000), []byte{0x88, 0x88, 0x00, 0x10})
	f.Add(uint8(16), uint16(5), []byte{0xff})
	f.Add(uint8(3), uint16(517), []byte{0x49, 0x92, 0x24})
	f.Add(uint8(1), uint16(65), []byte{0x01, 0x80})
	f.Fuzz(func(t *testing.T, width uint8, m uint16, raw []byte) {
		w := int(width)%16 + 1
		words := make([]uint64, (len(raw)+7)/8)
		for i, b := range raw {
			words[i/8] |= uint64(b) << (8 * (i % 8))
		}
		checkOccupancy(t, countingFromWords(t, w, uint64(m)%8192+1, words))
	})
}

// benchOccupancy is a package-level sink so the compiler keeps the call.
var benchOccupancy *bitset.BitSet

// BenchmarkCountingOccupancyBits measures the digest projection of one
// 2^18-counter shard (the durable-churn geometry) at about 0.6 fill:
// widths 1, 4 and 16 take the word-parallel kernel, width 3 the
// per-counter loop.
func BenchmarkCountingOccupancyBits(b *testing.B) {
	for _, width := range []int{1, 4, 16, 3} {
		b.Run(fmt.Sprintf("width%d", width), func(b *testing.B) {
			c := newBenchCounting(b, 1<<18, width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchOccupancy = c.OccupancyBits()
			}
		})
	}
}

// newBenchCounting builds an m-counter filter of the given width holding
// m/8 items under k = 7.
func newBenchCounting(b *testing.B, m uint64, width int) *Counting {
	b.Helper()
	fam, err := hashes.NewDoubleHashing(7, m, 3)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCounting(fam, width, Saturate)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < m/8; i++ {
		c.Add([]byte(fmt.Sprintf("item-%d", i)))
	}
	return c
}
