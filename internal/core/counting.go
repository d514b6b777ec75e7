package core

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"
	"sync/atomic"

	"evilbloom/internal/bitset"
	"evilbloom/internal/hashes"
)

// OverflowPolicy selects what a counting filter does when a counter hits its
// maximum. Dablooms-style wrapping is what the §6.2 overflow attack exploits;
// saturating counters neutralize it at the cost of losing deletability for
// hot counters.
type OverflowPolicy int

const (
	// Wrap lets the counter roll over to zero, silently erasing membership
	// evidence — faithful to 4-bit counter implementations like dablooms.
	Wrap OverflowPolicy = iota + 1
	// Saturate pins the counter at its maximum; such counters are never
	// decremented again.
	Saturate
)

func (p OverflowPolicy) String() string {
	switch p {
	case Wrap:
		return "wrap"
	case Saturate:
		return "saturate"
	default:
		return fmt.Sprintf("OverflowPolicy(%d)", int(p))
	}
}

// ParseOverflowPolicy resolves "wrap" or "saturate"; the empty string parses
// to the zero policy so callers can treat it as "use the default".
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "":
		return 0, nil
	case "wrap":
		return Wrap, nil
	case "saturate":
		return Saturate, nil
	default:
		return 0, fmt.Errorf("core: unknown overflow policy %q (want wrap or saturate)", s)
	}
}

// Counting is the counting Bloom filter of §4.3/§6.1: an array of small
// counters instead of bits, supporting deletion at the price of false
// negatives when counters are wrapped or wrongly decremented.
type Counting struct {
	counters packedCounters
	fam      hashes.IndexFamily
	policy   OverflowPolicy
	n        uint64
	overflow uint64 // counter-overflow events observed
	scratch  []uint64
}

var _ Filter = (*Counting)(nil)

// NewCounting builds a counting filter with width-bit counters (dablooms
// uses 4) over the family's geometry.
func NewCounting(fam hashes.IndexFamily, width int, policy OverflowPolicy) (*Counting, error) {
	pc, err := newPackedCounters(fam.M(), width)
	if err != nil {
		return nil, err
	}
	if policy != Wrap && policy != Saturate {
		return nil, fmt.Errorf("core: invalid overflow policy %d", int(policy))
	}
	return &Counting{
		counters: pc,
		fam:      fam,
		policy:   policy,
		scratch:  make([]uint64, 0, fam.K()),
	}, nil
}

// Add implements Filter.
func (c *Counting) Add(item []byte) {
	c.scratch = c.fam.Indexes(c.scratch[:0], item)
	c.AddIndexes(c.scratch)
}

// AddIndexes increments the counters at idx; it returns how many counters
// were previously zero and how many overflowed during this insertion.
func (c *Counting) AddIndexes(idx []uint64) (fresh, overflowed int) {
	for _, i := range idx {
		v := c.counters.get(i)
		if v == 0 {
			fresh++
		}
		if v == c.counters.max() {
			overflowed++
			c.overflow++
			if c.policy == Saturate {
				continue
			}
			c.counters.set(i, 0) // wrap: roll over, erasing evidence
			continue
		}
		c.counters.set(i, v+1)
	}
	c.n++
	return fresh, overflowed
}

// AddIndexesAtomic is AddIndexes with atomic counter stores: for callers
// that serialize writers under a lock but serve TestIndexesAtomic readers
// with no lock at all. The writer's own reads stay plain (writes are
// single-writer by contract); only the stores racing lock-free loads are
// atomic. Insertion and overflow counts are not read on the lock-free path.
func (c *Counting) AddIndexesAtomic(idx []uint64) (fresh, overflowed int) {
	for _, i := range idx {
		v := c.counters.get(i)
		if v == 0 {
			fresh++
		}
		if v == c.counters.max() {
			overflowed++
			c.overflow++
			if c.policy == Saturate {
				continue
			}
			c.counters.setAtomic(i, 0) // wrap: roll over, erasing evidence
			continue
		}
		c.counters.setAtomic(i, v+1)
	}
	c.n++
	return fresh, overflowed
}

// Remove decrements the counters of item. It returns an error (leaving any
// already-decremented counters modified, as real implementations do) if some
// counter is already zero — the footprint of a false-negative-inducing
// deletion. Saturated counters under the Saturate policy are left pinned.
func (c *Counting) Remove(item []byte) error {
	c.scratch = c.fam.Indexes(c.scratch[:0], item)
	_, err := c.RemoveIndexes(c.scratch)
	return err
}

// CanRemoveIndexes reports whether RemoveIndexes(idx) would complete
// without hitting a zero counter: every position's counter covers its
// multiplicity in idx (an index set may repeat a position, and each
// occurrence decrements once). Pinned counters under the Saturate policy
// always pass — they are never decremented. A caller that guards removals
// with this check (under the same lock) can never be driven into the
// partial-removal footprint.
func (c *Counting) CanRemoveIndexes(idx []uint64) bool {
	for i, p := range idx {
		v := c.counters.get(p)
		if v == c.counters.max() && c.policy == Saturate {
			continue
		}
		mult := uint64(1)
		for _, q := range idx[:i] {
			if q == p {
				mult++
			}
		}
		if mult > v {
			return false
		}
	}
	return true
}

// RemoveIndexes decrements a pre-computed index set. It returns how many
// counters this removal drove to zero — the mirror of AddIndexes' fresh
// count, which lets a wrapper track the non-zero weight incrementally. The
// zeroed count stays valid on error: counters decremented before the failing
// position remain decremented, exactly like the partial-removal footprint
// real implementations leave behind.
func (c *Counting) RemoveIndexes(idx []uint64) (zeroed int, err error) {
	if c.n > 0 {
		c.n--
	}
	for pos, i := range idx {
		v := c.counters.get(i)
		switch {
		case v == 0:
			return zeroed, fmt.Errorf("core: removing item whose counter %d (position %d) is already zero", i, pos)
		case v == c.counters.max() && c.policy == Saturate:
			// Pinned: cannot safely decrement.
		default:
			c.counters.set(i, v-1)
			if v == 1 {
				zeroed++
			}
		}
	}
	return zeroed, nil
}

// RemoveIndexesAtomic is RemoveIndexes with atomic counter stores; see
// AddIndexesAtomic for the locking contract.
func (c *Counting) RemoveIndexesAtomic(idx []uint64) (zeroed int, err error) {
	if c.n > 0 {
		c.n--
	}
	for pos, i := range idx {
		v := c.counters.get(i)
		switch {
		case v == 0:
			return zeroed, fmt.Errorf("core: removing item whose counter %d (position %d) is already zero", i, pos)
		case v == c.counters.max() && c.policy == Saturate:
			// Pinned: cannot safely decrement.
		default:
			c.counters.setAtomic(i, v-1)
			if v == 1 {
				zeroed++
			}
		}
	}
	return zeroed, nil
}

// Test implements Filter.
func (c *Counting) Test(item []byte) bool {
	c.scratch = c.fam.Indexes(c.scratch[:0], item)
	return c.TestIndexes(c.scratch)
}

// TestIndexes reports whether every counter at idx is non-zero.
func (c *Counting) TestIndexes(idx []uint64) bool {
	for _, i := range idx {
		if c.counters.get(i) == 0 {
			return false
		}
	}
	return true
}

// AtomicReads reports whether this filter's counters can be read torn-free
// with single atomic word loads: true exactly when the width divides the
// word size, so no counter ever straddles two words. Widths 1, 2, 4, 8 and
// 16 qualify; a straddling width would let a lock-free reader observe half
// of a two-word counter update.
func (c *Counting) AtomicReads() bool { return c.counters.aligned() }

// TestIndexesAtomic is TestIndexes with atomic counter loads — callable with
// no lock held while a serialized writer mutates through the atomic paths.
// Only valid when AtomicReads() is true.
func (c *Counting) TestIndexesAtomic(idx []uint64) bool {
	for _, i := range idx {
		if c.counters.getAtomic(i) == 0 {
			return false
		}
	}
	return true
}

// Count implements Filter.
func (c *Counting) Count() uint64 { return c.n }

// M returns the number of counters.
func (c *Counting) M() uint64 { return c.fam.M() }

// K returns the number of hash functions.
func (c *Counting) K() int { return c.fam.K() }

// Counter returns the value of counter i (for attack drivers and tests).
func (c *Counting) Counter(i uint64) uint64 { return c.counters.get(i) }

// Occupied reports whether counter i is non-zero — the adversary's
// per-position view of a known filter (§4).
func (c *Counting) Occupied(i uint64) bool { return c.counters.get(i) != 0 }

// CounterMax returns the maximum representable counter value (2^width − 1).
func (c *Counting) CounterMax() uint64 { return c.counters.max() }

// OccupancyBits projects the counters down to a plain bit vector: position i
// is set iff counter i is non-zero. This is the shape a Squid-style cache
// digest of a counting filter travels in — membership answers are identical
// to the source filter's, at one bit per position instead of the counter
// width. When the width divides 64 the projection runs a storage word at a
// time (foldLanes, gatherLanes): w counter words fill one digest word.
// Widths that straddle words extract counters one by one, skipping zero
// storage words whole, so a sparse filter still costs ~m·width/64 word
// reads.
func (c *Counting) OccupancyBits() *bitset.BitSet {
	m := c.M()
	if c.counters.aligned() {
		// Counter word j holds counters j·64/w onward, so its gathered lane
		// bits land in digest word j/w at bit (j mod w)·64/w. Lanes past
		// the last counter land past bit m, which FromWords clears.
		w := c.counters.width
		lanes := 64 / w
		out := make([]uint64, (m+63)/64)
		for j, x := range c.counters.words {
			out[j*lanes/64] |= gatherLanes(w, foldLanes(w, x)) << uint(j*lanes%64)
		}
		return bitset.FromWords(m, out)
	}
	bits := bitset.New(m)
	w := uint64(c.counters.width)
	for i := uint64(0); i < m; {
		bit := i * w
		word := bit / 64
		if c.counters.words[word] == 0 {
			if end := (word + 1) * 64; bit+w <= end {
				// Counter i lies wholly inside a zero word, as does every
				// later counter ending at or before the word boundary; jump
				// to the first counter extending past it. (Counters may
				// straddle words, so the straddler is re-checked normally.)
				next := (end-w)/w + 1
				if next > m {
					next = m
				}
				i = next
				continue
			}
		}
		if c.counters.get(i) != 0 {
			bits.Set(i)
		}
		i++
	}
	return bits
}

// Weight returns the number of non-zero counters: the popcount of the lane
// mask OccupancyBits gathers, when the width divides 64.
func (c *Counting) Weight() uint64 {
	var n int
	if c.counters.aligned() {
		w, words := c.counters.width, c.counters.words
		last := len(words) - 1
		for _, x := range words[:last] {
			n += mathbits.OnesCount64(foldLanes(w, x))
		}
		return uint64(n + mathbits.OnesCount64(foldLanes(w, words[last])&c.counters.tailMask()))
	}
	for i := uint64(0); i < c.M(); i++ {
		if c.counters.get(i) != 0 {
			n++
		}
	}
	return uint64(n)
}

// Fill returns Weight/m.
func (c *Counting) Fill() float64 {
	if c.M() == 0 {
		return 0
	}
	return float64(c.Weight()) / float64(c.M())
}

// Overflows returns the number of overflow events observed since creation —
// the §6.2 attack's signature.
func (c *Counting) Overflows() uint64 { return c.overflow }

// EstimatedFPR returns (W/m)^k from the current non-zero pattern.
func (c *Counting) EstimatedFPR() float64 {
	return FPForgeryProbability(c.M(), c.K(), c.Weight())
}

// Family returns the index family.
func (c *Counting) Family() hashes.IndexFamily { return c.fam }

// Policy returns the overflow policy.
func (c *Counting) Policy() OverflowPolicy { return c.policy }

// countingSnapshotHeader is the fixed prefix of a Counting snapshot: width,
// policy, m, n and the overflow count, followed by the packed counter words.
const countingSnapshotHeader = 1 + 1 + 8 + 8 + 8

// MarshalBinary encodes the counter state (width, policy, insertion and
// overflow counts, packed counters). The index family is NOT serialized —
// like a cache digest, a snapshot is only meaningful to a party that already
// knows the filter's public geometry (and, for keyed families, its secret).
func (c *Counting) MarshalBinary() ([]byte, error) {
	out := make([]byte, countingSnapshotHeader+8*len(c.counters.words))
	out[0] = byte(c.counters.width)
	out[1] = byte(c.policy)
	binary.LittleEndian.PutUint64(out[2:], c.counters.m)
	binary.LittleEndian.PutUint64(out[10:], c.n)
	binary.LittleEndian.PutUint64(out[18:], c.overflow)
	for i, w := range c.counters.words {
		binary.LittleEndian.PutUint64(out[countingSnapshotHeader+8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary restores state written by MarshalBinary into a filter that
// must already have the same geometry (m and counter width).
func (c *Counting) UnmarshalBinary(data []byte) error {
	if len(data) < countingSnapshotHeader {
		return fmt.Errorf("core: truncated counting snapshot: %d bytes", len(data))
	}
	width, policy := int(data[0]), OverflowPolicy(data[1])
	m := binary.LittleEndian.Uint64(data[2:])
	if width != c.counters.width || m != c.counters.m {
		return fmt.Errorf("core: snapshot geometry (m=%d, width=%d) does not match filter (m=%d, width=%d)",
			m, width, c.counters.m, c.counters.width)
	}
	if policy != Wrap && policy != Saturate {
		return fmt.Errorf("core: snapshot carries invalid overflow policy %d", int(policy))
	}
	if want := countingSnapshotHeader + 8*len(c.counters.words); len(data) != want {
		return fmt.Errorf("core: counting snapshot needs %d bytes, have %d", want, len(data))
	}
	c.policy = policy
	c.n = binary.LittleEndian.Uint64(data[10:])
	c.overflow = binary.LittleEndian.Uint64(data[18:])
	// Atomic in-place stores: a restore runs under the caller's write
	// exclusion, but lock-free readers may be loading these words with no
	// lock at all.
	for i := range c.counters.words {
		atomic.StoreUint64(&c.counters.words[i], binary.LittleEndian.Uint64(data[countingSnapshotHeader+8*i:]))
	}
	return nil
}

// packedCounters stores m counters of `width` bits each, packed into words.
type packedCounters struct {
	width int
	m     uint64
	words []uint64
}

func newPackedCounters(m uint64, width int) (packedCounters, error) {
	if width < 1 || width > 16 {
		return packedCounters{}, fmt.Errorf("core: counter width %d outside [1,16]", width)
	}
	if m == 0 {
		return packedCounters{}, fmt.Errorf("core: zero-size counter array")
	}
	totalBits := m * uint64(width)
	return packedCounters{
		width: width,
		m:     m,
		words: make([]uint64, (totalBits+63)/64),
	}, nil
}

func (p *packedCounters) max() uint64 { return 1<<uint(p.width) - 1 }

// get returns counter i. Counters may straddle a word boundary.
func (p *packedCounters) get(i uint64) uint64 {
	if i >= p.m {
		return 0
	}
	bit := i * uint64(p.width)
	word, off := bit/64, bit%64
	v := p.words[word] >> off
	if off+uint64(p.width) > 64 {
		v |= p.words[word+1] << (64 - off)
	}
	return v & p.max()
}

// set is the plain-write twin of setAtomic, for counters no lock-free
// reader can observe (construction, snapshot restore under all locks).
//
//lint:allow atomicpublish plain-write twin of setAtomic: callers serialize externally with no lock-free readers
func (p *packedCounters) set(i uint64, v uint64) {
	if i >= p.m {
		return
	}
	v &= p.max()
	bit := i * uint64(p.width)
	word, off := bit/64, bit%64
	p.words[word] = p.words[word]&^(p.max()<<off) | v<<off
	if off+uint64(p.width) > 64 {
		rem := off + uint64(p.width) - 64
		loMask := uint64(1)<<rem - 1
		p.words[word+1] = p.words[word+1]&^loMask | v>>(uint64(p.width)-rem)
	}
}

// aligned reports whether the width divides 64 — widths 1, 2, 4, 8 and 16
// — so every storage word holds 64/w whole counters ("lanes"), lane l in
// bits l·w … l·w+w−1, and no counter straddles two words.
func (p *packedCounters) aligned() bool { return 64%p.width == 0 }

// foldLanes ORs each w-bit lane of x onto the lane's low bit (log2(w)
// shifts) and clears every other bit: bit l·w of the result is set iff
// lane l is non-zero. w must divide 64.
func foldLanes(w int, x uint64) uint64 {
	switch w {
	case 2:
		return (x | x>>1) & 0x5555555555555555
	case 4:
		x |= x >> 1
		return (x | x>>2) & 0x1111111111111111
	case 8:
		x |= x >> 1
		x |= x >> 2
		return (x | x>>4) & 0x0101010101010101
	case 16:
		x |= x >> 1
		x |= x >> 2
		x |= x >> 4
		return (x | x>>8) & 0x0001000100010001
	}
	return x
}

// gatherLanes packs the lane bits of a folded word — one every w bits —
// into its low 64/w bits in lane order. Each rung of the ladder closes the
// gap between neighbouring runs of gathered bits, doubling their length.
func gatherLanes(w int, x uint64) uint64 {
	switch w {
	case 2:
		x = (x | x>>1) & 0x3333333333333333
		x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
		x = (x | x>>4) & 0x00ff00ff00ff00ff
		x = (x | x>>8) & 0x0000ffff0000ffff
		return (x | x>>16) & 0x00000000ffffffff
	case 4:
		x = (x | x>>3) & 0x0303030303030303
		x = (x | x>>6) & 0x000f000f000f000f
		x = (x | x>>12) & 0x000000ff000000ff
		return (x | x>>24) & 0x000000000000ffff
	case 8:
		x = (x | x>>7) & 0x0003000300030003
		x = (x | x>>14) & 0x0000000f0000000f
		return (x | x>>28) & 0x00000000000000ff
	case 16:
		x = (x | x>>15) & 0x0000000300000003
		return (x | x>>30) & 0x000000000000000f
	}
	return x
}

// tailMask covers the bits of the last storage word that hold counters: a
// restored snapshot may carry bits past them that no counter owns.
func (p *packedCounters) tailMask() uint64 {
	if used := p.m * uint64(p.width) % 64; used != 0 {
		return 1<<used - 1
	}
	return ^uint64(0)
}

// getAtomic is get with atomic word loads. Torn-free only for widths that
// divide 64 (the counter then lives in one word); a straddling counter is
// read with two loads that a concurrent setAtomic could interleave, which is
// why Counting.AtomicReads gates the lock-free path on the width.
func (p *packedCounters) getAtomic(i uint64) uint64 {
	if i >= p.m {
		return 0
	}
	bit := i * uint64(p.width)
	word, off := bit/64, bit%64
	v := atomic.LoadUint64(&p.words[word]) >> off
	if off+uint64(p.width) > 64 {
		v |= atomic.LoadUint64(&p.words[word+1]) << (64 - off)
	}
	return v & p.max()
}

// setAtomic is set with atomic word stores: the read-modify-write stays a
// plain read (writers are serialized by the caller), only the store racing
// lock-free atomic loads is atomic.
func (p *packedCounters) setAtomic(i uint64, v uint64) {
	if i >= p.m {
		return
	}
	v &= p.max()
	bit := i * uint64(p.width)
	word, off := bit/64, bit%64
	atomic.StoreUint64(&p.words[word], p.words[word]&^(p.max()<<off)|v<<off)
	if off+uint64(p.width) > 64 {
		rem := off + uint64(p.width) - 64
		loMask := uint64(1)<<rem - 1
		atomic.StoreUint64(&p.words[word+1], p.words[word+1]&^loMask|v>>(uint64(p.width)-rem))
	}
}
