package service

import (
	"errors"
	"fmt"

	"evilbloom/internal/bitset"
	"evilbloom/internal/cachedigest"
)

// ErrDigestUnexportable answers digest requests against a hardened filter:
// a digest is only useful to a peer that can reproduce the index mapping,
// and a hardened filter's keyed family never leaves the server. Exporting
// the bare bits would hand out an envelope no honest peer can evaluate —
// and a dishonest one could still mine for occupancy statistics — so the
// request is refused outright.
var ErrDigestUnexportable = errors.New(
	"service: hardened filters export no digest: the keyed index family never travels (use a naive filter for digest exchange)")

// DigestETag renders a store generation as the digest endpoint's entity
// tag. The store's per-boot salt is folded in because the generation
// counter resets on restart: without it, a restarted filter's generation
// would re-pass through values a peer already holds and earn a spurious
// 304 for different content.
func (s *Sharded) DigestETag(gen uint64) string {
	return fmt.Sprintf("%q", fmt.Sprintf("evb-digest-%x-%d", s.etagSalt, gen))
}

// gatherOccupancy snapshots the store's occupancy pattern and the envelope
// header describing it. Shards are read-locked one at a time: the result is
// per-shard consistent, the right trade for a summary that is stale the
// moment it leaves anyway (Squid rebuilds hourly; our peers refresh on an
// interval).
func (s *Sharded) gatherOccupancy() (cachedigest.EnvelopeInfo, []*bitset.BitSet, error) {
	info := cachedigest.EnvelopeInfo{
		Family:        cachedigest.FamilyMurmurDouble,
		SourceVariant: byte(s.variant),
		Seed:          s.seed,
		Shards:        len(s.shards),
		ShardBits:     s.mShard,
		K:             s.k,
	}
	if len(s.shards) > 1 {
		// Single-shard filters route everything to shard 0; the key is only
		// needed — and only published — when there is a choice to reproduce.
		copy(info.RouteKey[:], s.cfg.RouteKey)
	}
	bits := make([]*bitset.BitSet, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		src, ok := sh.backend.(digestSource)
		if !ok {
			sh.mu.RUnlock()
			return info, nil, fmt.Errorf("service: %v backend of shard %d cannot export a digest", s.variant, i)
		}
		bits[i] = src.OccupancyBits()
		info.Generation += sh.muts
		info.Count += sh.backend.Count()
		sh.mu.RUnlock()
	}
	return info, bits, nil
}

// DigestEnvelope serializes the store's occupancy into a cache-digest
// envelope (see package cachedigest for the byte layout) and returns it with
// the generation it captures. Works on any variant with the digestSource
// capability — a counting filter's digest is its non-zero mask, 1 bit per
// position regardless of counter width, so a digest is never larger than
// the filter and usually far smaller than its snapshot.
func (s *Sharded) DigestEnvelope() ([]byte, uint64, error) {
	if s.mode == ModeHardened {
		return nil, 0, ErrDigestUnexportable
	}
	info, bits, err := s.gatherOccupancy()
	if err != nil {
		return nil, 0, err
	}
	env, err := cachedigest.EncodeEnvelope(info, bits)
	if err != nil {
		return nil, 0, err
	}
	return env, info.Generation, nil
}

// digestBaseline is the occupancy snapshot of the last digest served to a
// delta-capable peer, retained so the next exchange can ship only the words
// that changed since. One baseline per store: the common mesh has one
// downstream per filter per node, and a second delta-capable peer whose ACK
// doesn't match the baseline simply falls back to a full envelope.
type digestBaseline struct {
	etag string
	gen  uint64
	bits []*bitset.BitSet // per shard, the occupancy of the served digest
}

// DigestExchange is DigestEnvelope's mesh-aware sibling: haveETag is the
// digest ETag the peer says it holds (its last ACK) and deltaCapable is
// whether it can apply a delta frame. When the ACK matches the retained
// baseline the exchange ships only the changed words (isDelta true) —
// unless that delta would be no smaller than the full envelope, which is
// then served instead. Any mismatch — first exchange, generation gap,
// restart, a different peer's ACK — falls back to the full envelope.
// Either way the served content becomes the new baseline. Correctness
// never depends on the baseline: a delta is only ever diffed against
// content the peer proved it holds by echoing the exact ETag it was served.
func (s *Sharded) DigestExchange(haveETag string, deltaCapable bool) (blob []byte, etag string, gen uint64, isDelta bool, err error) {
	if s.mode == ModeHardened {
		return nil, "", 0, false, ErrDigestUnexportable
	}
	if !deltaCapable {
		blob, gen, err = s.DigestEnvelope()
		if err != nil {
			return nil, "", 0, false, err
		}
		return blob, s.DigestETag(gen), gen, false, nil
	}
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	info, bits, err := s.gatherOccupancy()
	if err != nil {
		return nil, "", 0, false, err
	}
	gen = info.Generation
	etag = s.DigestETag(gen)
	base := s.deltaBase
	if base != nil && haveETag != "" && base.etag == haveETag {
		frame, derr := encodeDelta(base, info, bits)
		if derr == nil && frame != nil {
			s.deltaBase = &digestBaseline{etag: etag, gen: gen, bits: bits}
			return frame, etag, gen, true, nil
		}
		// A delta no smaller than the envelope (dense churn), or an
		// unencodable one (should not happen), ships the full envelope
		// rather than failing the exchange.
	}
	blob, err = cachedigest.EncodeEnvelope(info, bits)
	if err != nil {
		return nil, "", 0, false, err
	}
	s.deltaBase = &digestBaseline{etag: etag, gen: gen, bits: bits}
	return blob, etag, gen, false, nil
}

// smallDigestBytes is the envelope size below which a matching ACK always
// earns a delta frame. The bytes a full envelope could save are bounded by
// the envelope itself, under a page here, and a receiver on the delta path
// patches its held digest in place of rebuilding one from an envelope.
const smallDigestBytes = 4096

// encodeDelta diffs bits against the baseline and returns the delta frame,
// or nil when the frame would be no smaller than a full envelope of at
// least smallDigestBytes. The changed words are counted first, so the
// full-envelope case builds no list and the delta case sizes it once.
func encodeDelta(base *digestBaseline, info cachedigest.EnvelopeInfo, bits []*bitset.BitSet) ([]byte, error) {
	n := 0
	for si, bs := range bits {
		for wi := 0; wi < bs.Words(); wi++ {
			if bs.Word(wi) != base.bits[si].Word(wi) {
				n++
			}
		}
	}
	if full := info.EnvelopeSize(); full >= smallDigestBytes && cachedigest.DeltaSize(cachedigest.DeltaInfo{Words: n}) >= full {
		return nil, nil
	}
	wordsPerShard := (info.ShardBits + 63) / 64
	changed := make([]cachedigest.DeltaWord, 0, n)
	for si, bs := range bits {
		for wi := 0; wi < bs.Words(); wi++ {
			if w := bs.Word(wi); w != base.bits[si].Word(wi) {
				changed = append(changed, cachedigest.DeltaWord{
					Index: uint64(si)*wordsPerShard + uint64(wi),
					Value: w,
				})
			}
		}
	}
	return cachedigest.EncodeDelta(cachedigest.DeltaInfo{
		BaseGeneration: base.gen,
		NewGeneration:  info.Generation,
		NewCount:       info.Count,
		TotalWords:     uint64(len(bits)) * wordsPerShard,
	}, changed)
}
