package core

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"os"
)

// This file is the SWAR (SIMD-within-a-register) scan kernel, in the style
// of Go's internal/bytealg: the input is processed 8 bytes at a time with a
// uint64 broadcast-compare to find '<' anchors, and verification is
// branch-free for short keywords — the 8 bytes at the anchor are loaded as
// one word and compared against the precomputed masked pattern of each
// bucket entry (scanKeyword.word/mask), falling back to the byte loop only
// for keywords longer than 8 bytes and for anchors too close to the data end
// for a word load.
//
// The kernel is a drop-in replacement for the scalar reference
// (scanScalar): it reports the same candidates in the same order with the
// same counters. FuzzScanEquivalence and TestScanSWAREquivalence difference
// the two candidate-for-candidate; SMP_SCAN_KERNEL=scalar selects the
// reference kernel at run time (smpbench -scan reports both).

const (
	swarLo7 = 0x7F7F7F7F7F7F7F7F // low 7 bits of every byte lane

	// anchorBroadcast is '<' replicated into every lane; XORing it into a
	// loaded word zeroes exactly the lanes holding an anchor.
	anchorBroadcast = '<' * uint64(0x0101010101010101)

	// movemaskMul gathers the high bit of every byte lane into the top
	// byte: for z with bits only at lane MSBs (positions 8k+7), bit 56+k of
	// z*movemaskMul is lane k's bit, and every colliding partial product
	// falls above bit 63 where the 64-bit multiply discards it. This is the
	// scalar emulation of SSE2's PMOVMSKB.
	movemaskMul = 0x0002040810204081
)

// useScalarKernel pins every Scan call to the byte-at-a-time reference
// kernel; set SMP_SCAN_KERNEL=scalar to record pre-SWAR baselines or to
// bisect a suspected kernel difference in production.
var useScalarKernel = os.Getenv("SMP_SCAN_KERNEL") == "scalar"

// openTerm and closeTerm are the isTagTerminator lookup tables: the bytes
// that may directly follow a tagname inside a tag (whitespace, '>' and, for
// opening tags only, '/').
var openTerm, closeTerm [256]bool

func init() {
	for _, c := range []byte{' ', '\t', '\r', '\n', '>'} {
		openTerm[c] = true
		closeTerm[c] = true
	}
	openTerm['/'] = true
}

// zeroLanes returns a word with the high bit set in exactly the byte lanes
// of x that are zero, and no other bit set. The carry-free form — add
// within the low 7 bits of each lane, so no borrow ever crosses a lane — is
// deliberate: the cheaper (x-lo)&^x&hi haszero idiom reports false
// positives in lanes above a true zero lane (an 0x01 lane directly after a
// zero lane absorbs the borrow), which is harmless when only the first
// match is taken (memchr) but wrong for iterating every anchor in the word.
func zeroLanes(x uint64) uint64 {
	return ^(((x & swarLo7) + swarLo7) | x | swarLo7)
}

// AnchorMask returns the '<' anchors of the 64-byte block b[:64] as a
// bitmask: bit k is set exactly when b[k] == '<'. It is the scan kernel's
// per-block anchor step, exported for other anchor sweeps (the sidecar
// summary in internal/index). b must hold at least 64 bytes.
func AnchorMask(b []byte) uint64 {
	_ = b[63]
	return (zeroLanes(binary.LittleEndian.Uint64(b)^anchorBroadcast)*movemaskMul)>>56 |
		(zeroLanes(binary.LittleEndian.Uint64(b[8:])^anchorBroadcast)*movemaskMul)>>56<<8 |
		(zeroLanes(binary.LittleEndian.Uint64(b[16:])^anchorBroadcast)*movemaskMul)>>56<<16 |
		(zeroLanes(binary.LittleEndian.Uint64(b[24:])^anchorBroadcast)*movemaskMul)>>56<<24 |
		(zeroLanes(binary.LittleEndian.Uint64(b[32:])^anchorBroadcast)*movemaskMul)>>56<<32 |
		(zeroLanes(binary.LittleEndian.Uint64(b[40:])^anchorBroadcast)*movemaskMul)>>56<<40 |
		(zeroLanes(binary.LittleEndian.Uint64(b[48:])^anchorBroadcast)*movemaskMul)>>56<<48 |
		(zeroLanes(binary.LittleEndian.Uint64(b[56:])^anchorBroadcast)*movemaskMul)>>56<<56
}

// scanSWAR is the multi-anchor kernel: one load per 8 input bytes, one
// trailing-zeros step per anchor. Counters mirror the scalar anchor hop
// exactly — Shifts counts anchors, ShiftTotal the hop distances, and
// Comparisons the anchor bytes themselves — so the two kernels stay
// differenceable down to the instrumentation.
func (s *SegmentScanner) scanSWAR(dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate {
	// The anchor counters are kept in locals and flushed once: per-anchor
	// read-modify-writes on s.match would dominate the loop. Shifts and
	// Comparisons both advance once per anchor, and the hop distances
	// telescope — the sum of (pos-i+1) over all anchors is simply the last
	// anchor position plus one.
	anchors := int64(0)
	inspected := int64(0)
	last := -1
	w := 0 // block cursor
	// 64-byte blocks: eight independent load/compare chains packed into one
	// per-block anchor bitmask (bit k = anchor at data[w+k]), so the only
	// data-dependent branch is the anchor iteration itself — one short,
	// well-predicted loop per block instead of a branch per word.
	for w+64 <= owned {
		m := (zeroLanes(binary.LittleEndian.Uint64(data[w:])^anchorBroadcast)*movemaskMul)>>56 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+8:])^anchorBroadcast)*movemaskMul)>>56<<8 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+16:])^anchorBroadcast)*movemaskMul)>>56<<16 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+24:])^anchorBroadcast)*movemaskMul)>>56<<24 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+32:])^anchorBroadcast)*movemaskMul)>>56<<32 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+40:])^anchorBroadcast)*movemaskMul)>>56<<40 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+48:])^anchorBroadcast)*movemaskMul)>>56<<48 |
			(zeroLanes(binary.LittleEndian.Uint64(data[w+56:])^anchorBroadcast)*movemaskMul)>>56<<56
		if m == 0 {
			w += 64
			continue
		}
		// The whole block's anchor accounting comes from the mask itself:
		// one popcount instead of a counter bump per anchor, and the last
		// anchor is the mask's highest bit.
		anchors += int64(bits.OnesCount64(m))
		last = w + 63 - bits.LeadingZeros64(m)
		for ; m != 0; m &= m - 1 {
			pos := w + bits.TrailingZeros64(m)
			// Inline the probe — most anchors open tags outside the union
			// vocabulary, and they should not pay a function call. pos+8 <=
			// w+64+8; the boundary case defers to verifySWAR, which takes
			// the scalar path there.
			if pos+8 > len(data) {
				if c, ok := s.verifySWAR(data, base, pos, final); ok {
					dst = append(dst, c)
				}
				continue
			}
			var bucket []scanKeyword
			if c1 := data[pos+1]; c1 == '/' {
				bucket = s.sp.closing[data[pos+2]]
			} else {
				bucket = s.sp.open[c1]
			}
			if len(bucket) == 0 {
				continue
			}
			// Single-keyword buckets (the common shape) verify right here:
			// one word load, one masked compare, no call unless the word
			// matches. Counter parity with the scalar kernel: one inspected
			// character for the probe, then len+1 for the keyword whenever
			// its end is in view, match or not. Multi-keyword buckets take
			// verifyBucket, which does its own counting.
			if len(bucket) == 1 {
				inspected++
				kw := &bucket[0]
				end := pos + len(kw.pattern)
				if end >= len(data) {
					continue
				}
				inspected += int64(len(kw.pattern)) + 1
				if binary.LittleEndian.Uint64(data[pos:])&kw.mask != kw.word {
					continue
				}
				if c, ok := s.acceptKeyword(kw, data, base, pos, end, final); ok {
					dst = append(dst, c)
				}
				continue
			}
			if c, ok := s.verifyBucket(bucket, data, base, pos, final); ok {
				dst = append(dst, c)
			}
		}
		w += 64
	}
	for w+8 <= owned {
		m := zeroLanes(binary.LittleEndian.Uint64(data[w:]) ^ anchorBroadcast)
		for m != 0 {
			pos := w + bits.TrailingZeros64(m)>>3
			m &= m - 1
			anchors++
			last = pos
			if c, ok := s.verifySWAR(data, base, pos, final); ok {
				dst = append(dst, c)
			}
		}
		w += 8
	}
	// Anchors in the final sub-8-byte tail of the owned range.
	for pos := w; pos < owned; pos++ {
		if data[pos] != '<' {
			continue
		}
		anchors++
		last = pos
		if c, ok := s.verifySWAR(data, base, pos, final); ok {
			dst = append(dst, c)
		}
	}
	s.inspected += inspected
	if anchors > 0 {
		s.match.Shifts += anchors
		s.match.Comparisons += anchors
		s.match.ShiftTotal += int64(last + 1)
	}
	return dst
}

// verifySWAR resolves the unique keyword valid at the '<' anchor pos, like
// verifyScalar but with one masked word compare per bucket entry instead of
// a byte loop. Anchors within 8 bytes of the data end take the scalar path —
// there a word load would read past the buffer.
func (s *SegmentScanner) verifySWAR(data []byte, base int64, pos int, final bool) (Candidate, bool) {
	if pos+8 > len(data) {
		return s.verifyScalar(data, base, pos, final)
	}
	var bucket []scanKeyword
	if data[pos+1] == '/' {
		bucket = s.sp.closing[data[pos+2]]
	} else {
		bucket = s.sp.open[data[pos+1]]
	}
	if len(bucket) == 0 {
		return Candidate{}, false
	}
	return s.verifyBucket(bucket, data, base, pos, final)
}

// verifyBucket runs the masked word compares for a non-empty bucket; the
// caller has already ruled out the near-end boundary (pos+8 <= len(data)).
func (s *SegmentScanner) verifyBucket(bucket []scanKeyword, data []byte, base int64, pos int, final bool) (Candidate, bool) {
	s.inspected++
	load := binary.LittleEndian.Uint64(data[pos:])
	for k := range bucket {
		kw := &bucket[k]
		end := pos + len(kw.pattern)
		if end >= len(data) {
			continue
		}
		s.inspected += int64(len(kw.pattern)) + 1
		if load&kw.mask != kw.word {
			continue
		}
		if c, ok := s.acceptKeyword(kw, data, base, pos, end, final); ok {
			return c, true
		}
	}
	return Candidate{}, false
}

// acceptKeyword finishes a keyword whose first word already matched: the
// tail compare for patterns longer than the word, the terminator check, and
// the tag-end resolution. A terminator failure counts as rejected; either
// failure leaves the bucket loop free to try the next keyword.
func (s *SegmentScanner) acceptKeyword(kw *scanKeyword, data []byte, base int64, pos, end int, final bool) (Candidate, bool) {
	if len(kw.pattern) > 8 && !bytes.Equal(data[pos+8:end], kw.pattern[8:]) {
		return Candidate{}, false
	}
	if kw.closing {
		if !closeTerm[data[end]] {
			s.rejected++
			return Candidate{}, false
		}
	} else if !openTerm[data[end]] {
		s.rejected++
		return Candidate{}, false
	}
	return s.candidate(kw, data, base, pos, end, final), true
}
