package index

import (
	"encoding/binary"
	"errors"
	"fmt"

	"smp/internal/core"
)

// Sidecar wire format (all integers little-endian or uvarint):
//
//	magic   [4]byte  "SMPX"
//	version byte     1
//	docLen  uvarint
//	docHash [32]byte sha256 of the document
//	fp      [8]byte  vocabulary fingerprint (FingerprintKeywords)
//	summary [32]byte first-letter bitmap + [256]byte Bloom filter
//	kwCount uvarint, then per keyword: len uvarint + bytes
//	ccCount uvarint, then per candidate:
//	  posDelta uvarint  Pos - prevPos (first candidate: Pos + 1), always >= 1
//	  kwIdx    uvarint  index into the keyword table
//	  ctrl     uvarint  (tagEndDelta << 3) | bachelor<<2 | errKind
//	                    tagEndDelta = TagEnd - (Pos + KwLen), errKind 0;
//	                    0 otherwise (errKind is the candidate's
//	                    core.FailKind: 1 = tag too long, 2 = EOF inside
//	                    tag — both reconstruct from Pos alone)
//	checksum [8]byte  FNV-1a over everything before it
//
// Decode validates every field against the recorded docLen and vocabulary
// before trusting it; any violation returns an error and the caller falls
// back to scanning. The checksum makes random corruption an error rather
// than a silently different candidate stream.

const (
	sidecarMagic   = "SMPX"
	sidecarVersion = 1
)

// ErrCorrupt wraps all decode failures so callers can branch on "bad
// sidecar" without inspecting messages.
var ErrCorrupt = errors.New("index: corrupt sidecar")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Encode serialises the index into a self-validating sidecar.
func (ix *Index) Encode() ([]byte, error) {
	var tmp [binary.MaxVarintLen64]byte
	buf := make([]byte, 0, 64+len(ix.keywords)*16+len(ix.cands)*6)
	buf = append(buf, sidecarMagic...)
	buf = append(buf, sidecarVersion)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(ix.docLen))]...)
	buf = append(buf, ix.docHash[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, ix.fp)
	buf = append(buf, ix.summary.firstLetter[:]...)
	buf = append(buf, ix.summary.bloom[:]...)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(ix.keywords)))]...)
	for _, kw := range ix.keywords {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(kw)))]...)
		buf = append(buf, kw...)
	}
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(ix.cands)))]...)
	prevPos := int64(-1)
	for _, c := range ix.cands {
		if !c.Complete {
			return nil, fmt.Errorf("index: incomplete candidate at offset %d (sidecars require a final scan)", c.Pos)
		}
		if c.Kw < 0 || int(c.Kw) >= len(ix.keywords) {
			return nil, fmt.Errorf("index: candidate at offset %d: keyword ID %d not in the %d-keyword vocabulary", c.Pos, c.Kw, len(ix.keywords))
		}
		if c.Fail > core.FailEOFInsideTag {
			return nil, fmt.Errorf("index: candidate at offset %d: unencodable failure kind %d", c.Pos, c.Fail)
		}
		// The wire errKind is the candidate's FailKind value.
		ctrl := uint64(c.Fail)
		if c.Bachelor {
			ctrl |= 1 << 2
		}
		if c.Fail == core.FailNone {
			delta := c.TagEnd - (c.Pos + int64(c.KwLen))
			if delta < 0 {
				return nil, fmt.Errorf("index: candidate at offset %d has TagEnd before keyword end", c.Pos)
			}
			ctrl |= uint64(delta) << 3
		}
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(c.Pos-prevPos))]...)
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(c.Kw))]...)
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], ctrl)]...)
		prevPos = c.Pos
	}
	buf = binary.LittleEndian.AppendUint64(buf, fnv64a(buf))
	return buf, nil
}

// decoder is a bounds-checked cursor over the sidecar payload.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) bytes(n int, what string) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, corruptf("truncated %s", what)
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, corruptf("bad uvarint %s", what)
	}
	d.off += n
	return v, nil
}

// validKeyword enforces the shape Token.Keyword produces: '<', an optional
// '/', then a non-empty tag name free of scan terminators and sweep stop
// characters. Anything else cannot have come from Encode.
func validKeyword(kw string) bool {
	if len(kw) < 2 || kw[0] != '<' {
		return false
	}
	name := kw[1:]
	if name[0] == '/' {
		name = name[1:]
	}
	if len(name) == 0 {
		return false
	}
	for i := 0; i < len(name); i++ {
		if nameStop[name[i]] {
			return false
		}
	}
	return true
}

// Decode parses and validates a sidecar produced by Encode. The returned
// index is unbound; callers must Bind the document before replaying.
func Decode(data []byte) (*Index, error) {
	if len(data) < len(sidecarMagic)+1+8 {
		return nil, corruptf("short file (%d bytes)", len(data))
	}
	if string(data[:len(sidecarMagic)]) != sidecarMagic {
		return nil, corruptf("bad magic")
	}
	if v := data[len(sidecarMagic)]; v != sidecarVersion {
		return nil, corruptf("unsupported version %d", v)
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	if binary.LittleEndian.Uint64(trailer) != fnv64a(payload) {
		return nil, corruptf("checksum mismatch")
	}
	d := &decoder{data: payload, off: len(sidecarMagic) + 1}

	docLen, err := d.uvarint("docLen")
	if err != nil {
		return nil, err
	}
	if docLen > 1<<62 {
		return nil, corruptf("absurd docLen %d", docLen)
	}
	ix := &Index{docLen: int64(docLen)}
	hash, err := d.bytes(32, "docHash")
	if err != nil {
		return nil, err
	}
	copy(ix.docHash[:], hash)
	fpb, err := d.bytes(8, "fingerprint")
	if err != nil {
		return nil, err
	}
	ix.fp = binary.LittleEndian.Uint64(fpb)
	fl, err := d.bytes(len(ix.summary.firstLetter), "summary bitmap")
	if err != nil {
		return nil, err
	}
	copy(ix.summary.firstLetter[:], fl)
	bl, err := d.bytes(len(ix.summary.bloom), "summary bloom")
	if err != nil {
		return nil, err
	}
	copy(ix.summary.bloom[:], bl)

	kwCount, err := d.uvarint("keyword count")
	if err != nil {
		return nil, err
	}
	// Each keyword needs at least a length byte and two payload bytes.
	if kwCount > uint64(d.remaining())/3 {
		return nil, corruptf("keyword count %d exceeds payload", kwCount)
	}
	ix.keywords = make([]string, kwCount)
	for i := range ix.keywords {
		kl, err := d.uvarint("keyword length")
		if err != nil {
			return nil, err
		}
		if kl > uint64(core.MaxTagLength) {
			return nil, corruptf("keyword length %d", kl)
		}
		kb, err := d.bytes(int(kl), "keyword")
		if err != nil {
			return nil, err
		}
		kw := string(kb)
		if !validKeyword(kw) {
			return nil, corruptf("malformed keyword %q", kw)
		}
		ix.keywords[i] = kw
	}
	if core.FingerprintKeywords(ix.keywords) != ix.fp {
		return nil, corruptf("vocabulary does not match its fingerprint")
	}

	ccCount, err := d.uvarint("candidate count")
	if err != nil {
		return nil, err
	}
	// Each candidate is at least three uvarint bytes.
	if ccCount > uint64(d.remaining())/3 {
		return nil, corruptf("candidate count %d exceeds payload", ccCount)
	}
	ix.cands = make([]core.Candidate, ccCount)
	prevPos := int64(-1)
	for i := range ix.cands {
		posDelta, err := d.uvarint("candidate position")
		if err != nil {
			return nil, err
		}
		if posDelta == 0 || posDelta > uint64(docLen) {
			return nil, corruptf("candidate %d: position delta %d", i, posDelta)
		}
		pos := prevPos + int64(posDelta)
		if pos >= int64(docLen) {
			return nil, corruptf("candidate %d: offset %d beyond document", i, pos)
		}
		ki, err := d.uvarint("candidate keyword")
		if err != nil {
			return nil, err
		}
		if ki >= kwCount {
			return nil, corruptf("candidate %d: keyword index %d of %d", i, ki, kwCount)
		}
		kwLen := len(ix.keywords[ki])
		if pos+int64(kwLen) > int64(docLen) {
			return nil, corruptf("candidate %d: keyword exceeds document at offset %d", i, pos)
		}
		ctrl, err := d.uvarint("candidate control")
		if err != nil {
			return nil, err
		}
		kind := core.FailKind(ctrl & 3)
		bachelor := ctrl&(1<<2) != 0
		tagEndDelta := int64(ctrl >> 3)
		c := core.Candidate{
			Pos:      pos,
			Kw:       int32(ki),
			KwLen:    int32(kwLen),
			Complete: true,
		}
		switch kind {
		case core.FailNone:
			c.TagEnd = pos + int64(kwLen) + tagEndDelta
			if c.TagEnd >= int64(docLen) {
				return nil, corruptf("candidate %d: tag end %d beyond document", i, c.TagEnd)
			}
			c.Bachelor = bachelor
		case core.FailTagTooLong, core.FailEOFInsideTag:
			if tagEndDelta != 0 || bachelor {
				return nil, corruptf("candidate %d: error kind %d with tag-end bits", i, kind)
			}
			c.Fail = kind
		default:
			return nil, corruptf("candidate %d: error kind %d", i, kind)
		}
		if c.Bachelor && ix.keywords[ki][1] == '/' {
			return nil, corruptf("candidate %d: bachelor closing tag", i)
		}
		ix.cands[i] = c
		prevPos = pos
	}
	if d.remaining() != 0 {
		return nil, corruptf("%d trailing bytes", d.remaining())
	}
	return ix, nil
}
