package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// BitSet is a fixed-size vector of m bits, all initially zero. The zero value
// is an empty, zero-length set; use New to allocate a sized one.
type BitSet struct {
	size  uint64 // number of valid bits
	words []uint64
}

// New returns a BitSet holding size bits, all zero.
func New(size uint64) *BitSet {
	return &BitSet{
		size:  size,
		words: make([]uint64, wordsFor(size)),
	}
}

func wordsFor(size uint64) int {
	return int((size + wordBits - 1) / wordBits)
}

// FromWords returns a set of size bits backed by words — bit i in word i/64
// at position i%64 — taking ownership of the slice. Bits at or beyond size
// are cleared. words must hold exactly the words size needs; anything else
// is a caller bug and panics.
func FromWords(size uint64, words []uint64) *BitSet {
	if len(words) != wordsFor(size) {
		panic(fmt.Sprintf("bitset: %d words for a %d-bit set, want %d", len(words), size, wordsFor(size)))
	}
	b := &BitSet{size: size, words: words}
	b.trimTail()
	return b
}

// Size returns the number of bits the set holds (the filter size m).
func (b *BitSet) Size() uint64 { return b.size }

// Set sets bit i to 1. It reports whether the bit was previously unset, which
// lets Bloom filters count newly-set bits without a separate Test call.
// Out-of-range indexes are ignored and report false.
//
//lint:allow atomicpublish plain-write twin of SetAtomic: callers serialize externally and must not expose the set to lock-free readers
func (b *BitSet) Set(i uint64) bool {
	if i >= b.size {
		return false
	}
	w, mask := i/wordBits, uint64(1)<<(i%wordBits)
	fresh := b.words[w]&mask == 0
	b.words[w] |= mask
	return fresh
}

// Clear sets bit i to 0. It reports whether the bit was previously set.
//
//lint:allow atomicpublish plain-write twin: callers serialize externally and must not expose the set to lock-free readers
func (b *BitSet) Clear(i uint64) bool {
	if i >= b.size {
		return false
	}
	w, mask := i/wordBits, uint64(1)<<(i%wordBits)
	was := b.words[w]&mask != 0
	b.words[w] &^= mask
	return was
}

// Test reports whether bit i is set. Out-of-range indexes report false.
func (b *BitSet) Test(i uint64) bool {
	if i >= b.size {
		return false
	}
	return b.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Atomic accessors. A BitSet has no lock of its own; these exist for callers
// that layer their own mutual exclusion over *writes* but want *reads* to
// proceed with no lock at all (the service's lock-free membership path).
// The contract: while any goroutine may call TestAtomic concurrently, all
// mutations must be serialized externally AND must go through the atomic
// write methods — a plain Set racing a TestAtomic is a data race. Writes
// stay single-writer, so the atomic stores need no compare-and-swap.

// SetAtomic is Set with an atomic word store, for bit vectors that are read
// lock-free while a serialized writer mutates them.
func (b *BitSet) SetAtomic(i uint64) bool {
	if i >= b.size {
		return false
	}
	w, mask := i/wordBits, uint64(1)<<(i%wordBits)
	old := atomic.LoadUint64(&b.words[w])
	if old&mask != 0 {
		return false
	}
	atomic.StoreUint64(&b.words[w], old|mask)
	return true
}

// TestAtomic is Test with an atomic word load — safe to call with no lock
// held while a serialized writer uses SetAtomic/StoreFrom.
func (b *BitSet) TestAtomic(i uint64) bool {
	if i >= b.size {
		return false
	}
	return atomic.LoadUint64(&b.words[i/wordBits])&(1<<(i%wordBits)) != 0
}

// StoreFrom overwrites b's contents with o's, word by word with atomic
// stores, without replacing the backing array — so lock-free readers holding
// the old view never observe a torn word or a dangling slice. Sizes must
// match exactly.
func (b *BitSet) StoreFrom(o *BitSet) error {
	if b.size != o.size {
		return fmt.Errorf("bitset: storing %d bits into a %d-bit set", o.size, b.size)
	}
	for i, w := range o.words {
		atomic.StoreUint64(&b.words[i], w)
	}
	return nil
}

// Words returns the number of backing 64-bit words.
func (b *BitSet) Words() int { return len(b.words) }

// Word returns backing word i (bits i*64 … i*64+63, LSB first).
// Out-of-range indexes return 0.
func (b *BitSet) Word(i int) uint64 {
	if i < 0 || i >= len(b.words) {
		return 0
	}
	return b.words[i]
}

// SetWord overwrites backing word i wholesale — the digest-delta apply path,
// which patches only the words a peer reported changed. Bits beyond Size in
// the last word are trimmed so the set stays canonical; out-of-range indexes
// are ignored.
//
//lint:allow atomicpublish plain-write twin: delta application happens on an unpublished working copy, then publishes via StoreFrom
func (b *BitSet) SetWord(i int, w uint64) {
	if i < 0 || i >= len(b.words) {
		return
	}
	b.words[i] = w
	if i == len(b.words)-1 {
		b.trimTail()
	}
}

// Weight returns the Hamming weight w_H(z): the number of set bits.
func (b *BitSet) Weight() uint64 {
	var n int
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// Fill returns the fraction of set bits W/m, the quantity that drives every
// false-positive estimate in the paper. A zero-size set has fill 0.
func (b *BitSet) Fill() float64 {
	if b.size == 0 {
		return 0
	}
	return float64(b.Weight()) / float64(b.size)
}

// Support returns supp(z): the sorted indexes of all set bits. The slice is
// freshly allocated; mutating it does not affect the set.
func (b *BitSet) Support() []uint64 {
	out := make([]uint64, 0, b.Weight())
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, uint64(wi*wordBits+bit))
			w &= w - 1
		}
	}
	return out
}

// SetAll sets every bit to 1 (a fully saturated filter).
//
//lint:allow atomicpublish plain-write twin: saturation is a test/attack-harness operation on unpublished sets
func (b *BitSet) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
}

// Reset clears every bit.
//
//lint:allow atomicpublish plain-write twin: callers serialize externally and must not expose the set to lock-free readers
func (b *BitSet) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trimTail zeroes the unused high bits of the last word so that Weight,
// Equal and serialization stay canonical.
//
//lint:allow atomicpublish internal helper of the plain-write twins; runs only on sets their callers already serialize
func (b *BitSet) trimTail() {
	if rem := b.size % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// Clone returns a deep copy.
//
//lint:allow atomicpublish writes land in the freshly allocated copy, which no reader can hold yet
func (b *BitSet) Clone() *BitSet {
	out := &BitSet{size: b.size, words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

// Equal reports whether two sets have identical size and contents.
func (b *BitSet) Equal(o *BitSet) bool {
	if b.size != o.size {
		return false
	}
	for i, w := range b.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}

// UnionWith ORs o into b. Both sets must have the same size.
//
//lint:allow atomicpublish plain-write twin: digest merges run on unpublished working copies
func (b *BitSet) UnionWith(o *BitSet) error {
	if b.size != o.size {
		return fmt.Errorf("bitset: union of mismatched sizes %d and %d", b.size, o.size)
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
	return nil
}

// IntersectWith ANDs o into b. Both sets must have the same size.
//
//lint:allow atomicpublish plain-write twin: digest merges run on unpublished working copies
func (b *BitSet) IntersectWith(o *BitSet) error {
	if b.size != o.size {
		return fmt.Errorf("bitset: intersection of mismatched sizes %d and %d", b.size, o.size)
	}
	for i, w := range o.words {
		b.words[i] &= w
	}
	return nil
}

// MarshalBinary encodes the set as an 8-byte little-endian size followed by
// the packed words. It implements encoding.BinaryMarshaler; cache digests
// (§7 of the paper) travel between proxies in this form.
func (b *BitSet) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8+8*len(b.words))
	binary.LittleEndian.PutUint64(out, b.size)
	for i, w := range b.words {
		binary.LittleEndian.PutUint64(out[8+8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary decodes data produced by MarshalBinary. The receiver
// must be unpublished: decoding replaces the backing words wholesale.
//
//lint:allow atomicpublish decodes into a receiver that must not be visible to lock-free readers yet
func (b *BitSet) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bitset: truncated header: %d bytes", len(data))
	}
	size := binary.LittleEndian.Uint64(data)
	want := wordsFor(size)
	if len(data) != 8+8*want {
		return fmt.Errorf("bitset: size %d needs %d payload bytes, have %d", size, 8*want, len(data)-8)
	}
	b.size = size
	b.words = make([]uint64, want)
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(data[8+8*i:])
	}
	b.trimTail()
	return nil
}

// String renders small sets as a 0/1 string (LSB first) and large ones as a
// summary; used by tests and examples, matching the figures in the paper.
func (b *BitSet) String() string {
	if b.size > 128 {
		return fmt.Sprintf("BitSet{m=%d, W=%d}", b.size, b.Weight())
	}
	buf := make([]byte, b.size)
	for i := uint64(0); i < b.size; i++ {
		if b.Test(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
