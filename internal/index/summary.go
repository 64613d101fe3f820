package index

import (
	"encoding/binary"
	"math/bits"

	"smp/internal/core"
)

// Summary is the per-document vocabulary summary stored in a sidecar header:
// a 256-bit bitmap over the first byte of every tag name occurring in the
// document, plus a small Bloom filter over the full names. It answers "may
// keyword k occur in this document?" with no false negatives: if the summary
// says a tag name is absent, no verified candidate for any keyword naming it
// exists, so a query whose entire vocabulary is absent projects exactly as a
// replay over an empty candidate stream would (corpus-granularity
// prefiltering).
type Summary struct {
	// firstLetter has bit b set when some tag name in the document starts
	// with byte b.
	firstLetter [32]byte
	// bloom is a bloomBits-bit filter over the tag names, bloomHashes probes
	// per name.
	bloom [bloomBits / 8]byte
}

const (
	bloomBits   = 2048
	bloomHashes = 4
)

// fnv64a hashes a byte slice with FNV-1a.
func fnv64a(data []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range data {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// bloomProbe returns the i-th bit index for a name hash (double hashing).
func bloomProbe(h uint64, i int) uint {
	h1, h2 := uint32(h), uint32(h>>32)
	return uint(h1+uint32(i)*h2) % bloomBits
}

// add records one tag name.
func (s *Summary) add(name []byte) {
	if len(name) == 0 {
		return
	}
	s.firstLetter[name[0]>>3] |= 1 << (name[0] & 7)
	h := fnv64a(name)
	for i := 0; i < bloomHashes; i++ {
		bit := bloomProbe(h, i)
		s.bloom[bit>>3] |= 1 << (bit & 7)
	}
}

// merge ORs the names recorded in o into s.
func (s *Summary) merge(o *Summary) {
	for i := range s.firstLetter {
		s.firstLetter[i] |= o.firstLetter[i]
	}
	for i := range s.bloom {
		s.bloom[i] |= o.bloom[i]
	}
}

// MayContain reports whether a tag name may occur in the document. False
// means definitely absent; true may be a Bloom false positive.
func (s *Summary) MayContain(name string) bool {
	if len(name) == 0 {
		return false
	}
	if s.firstLetter[name[0]>>3]&(1<<(name[0]&7)) == 0 {
		return false
	}
	h := fnv64a([]byte(name))
	for i := 0; i < bloomHashes; i++ {
		bit := bloomProbe(h, i)
		if s.bloom[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// nameStop marks the bytes that end a tag name in the summary sweep. The
// set is a superset of the scan's tag terminators (whitespace, '>', '/') plus
// '<' and quotes; no DTD element name contains any of these bytes, so for
// every position where a keyword verifies, the sweep extracts exactly the
// keyword's tag name — which is what makes the summary sound (no false
// negatives).
var nameStop [256]bool

func init() {
	for _, c := range []byte{' ', '\t', '\r', '\n', '>', '/', '<', '"', '\''} {
		nameStop[c] = true
	}
}

// sweeper accumulates the summary of the anchors it is shown, one range at
// a time. It remembers, across ranges, the two names it last added under
// each first-two-bytes key.
type sweeper struct {
	sum    Summary
	recent [256][2]recentName
}

// sweep records the tag name after every '<' anchor at positions [lo, hi)
// of doc, skipping the '/' of closing tags. Names may run past hi: a name
// holds no '<', so it never contains a later anchor, and the summary of a
// document is the OR of the sweeps of any partition of its anchors. Anchors
// inside text or quoted attribute values contribute harmless false
// positives — exactly like the position-exhaustive candidate scan, the
// sweep over-approximates and never misses a real tag.
//
// Anchors are found 64 bytes at a time with the scan kernel's anchor mask.
// A name equal to one of the two names last added under its first two
// bytes is not hashed again: adding a name is idempotent, so skipping the
// repeat leaves the summary bit-identical, and most tags repeat a recent
// name. The repeat check needs neither the name's extent nor its hash —
// one masked word compare (a byte compare for names over eight bytes) and
// one stop-table load for the byte after the remembered name.
func (sw *sweeper) sweep(doc []byte, lo, hi int) {
	w := lo
	for ; w+64 <= hi; w += 64 {
		for m := core.AnchorMask(doc[w:]); m != 0; m &= m - 1 {
			sw.anchor(doc, w+bits.TrailingZeros64(m))
		}
	}
	for ; w < hi; w++ {
		if doc[w] == '<' {
			sw.anchor(doc, w)
		}
	}
}

// recentName is a name the sweep added, kept for the repeat check.
type recentName struct {
	name []byte
	// word is the name's bytes as a little-endian word under mask; mask is
	// zero for names longer than eight bytes.
	word, mask uint64
}

// repeats reports whether the tag name at doc[i:] is r.name.
func (r *recentName) repeats(doc []byte, i int) bool {
	end := i + len(r.name)
	if len(r.name) == 0 || end >= len(doc) || !nameStop[doc[end]] {
		return false
	}
	if r.mask != 0 && i+8 <= len(doc) {
		return binary.LittleEndian.Uint64(doc[i:])&r.mask == r.word
	}
	return string(doc[i:end]) == string(r.name)
}

// anchor records the tag name following the '<' at doc[p].
func (sw *sweeper) anchor(doc []byte, p int) {
	i := p + 1
	if i < len(doc) && doc[i] == '/' {
		i++
	}
	if i+1 >= len(doc) {
		// No room for the two-byte key: at most a one-byte name is left.
		if i < len(doc) && !nameStop[doc[i]] {
			sw.sum.add(doc[i:])
		}
		return
	}
	if nameStop[doc[i]] {
		return
	}
	set := &sw.recent[doc[i]+7*doc[i+1]]
	if set[0].repeats(doc, i) {
		return
	}
	if set[1].repeats(doc, i) {
		set[0], set[1] = set[1], set[0]
		return
	}
	j := i + 1
	for j < len(doc) && !nameStop[doc[j]] {
		j++
	}
	name := doc[i:j]
	r := recentName{name: name}
	if len(name) <= 8 {
		for k := len(name) - 1; k >= 0; k-- {
			r.word = r.word<<8 | uint64(name[k])
		}
		r.mask = ^uint64(0) >> (64 - 8*len(name))
	}
	set[1], set[0] = set[0], r
	sw.sum.add(name)
}
