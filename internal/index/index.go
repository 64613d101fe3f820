package index

import (
	"crypto/sha256"
	"errors"

	"smp/internal/core"
)

// ErrStale reports that the document bytes no longer match the content hash
// recorded when the sidecar was built. The caller must fall back to the scan
// path; replaying a stale candidate stream could emit wrong bytes.
var ErrStale = errors.New("index: document does not match the sidecar content hash")

// Index is one document's persisted candidate stream: every verified
// occurrence of a vocabulary's keywords, in scan order, plus the metadata
// needed to decide when the stream may be replayed — the vocabulary it was
// built for, the content hash of the document it was built from, and a
// vocabulary summary for corpus-granularity prefiltering.
//
// An Index is immutable after Build or Decode and safe for concurrent use.
// The one exception is Bind, which attaches (after verifying) the document
// bytes; callers that share an Index across goroutines bind it once, up
// front.
type Index struct {
	// keywords is the vocabulary in canonical order; the candidates' Kw
	// IDs index it.
	keywords []string
	// fp is FingerprintKeywords(keywords), the fast-path coverage check.
	fp uint64
	// docLen and docHash identify the document the stream was scanned from.
	docLen  int64
	docHash [32]byte
	// summary answers "may tag name n occur in this document?".
	summary Summary
	// cands is the verified candidate stream, strictly increasing in Pos,
	// with Kw IDs into keywords. Every candidate is Complete (the build scan
	// is final), so replays never re-resolve tag ends from document bytes.
	cands []core.Candidate
	// doc is the verified document binding (nil until Bind or Build).
	doc []byte
}

// Build scans doc once with sp's union vocabulary and records every verified
// keyword occurrence. The returned Index is already bound to doc.
func Build(doc []byte, sp *core.ScanPlan) *Index {
	sc := sp.NewScanner()
	cands := sc.Scan(nil, doc, 0, len(doc), true)
	keywords := append([]string(nil), sp.Keywords()...)
	ix := &Index{
		keywords: keywords,
		fp:       sp.Fingerprint(),
		docLen:   int64(len(doc)),
		docHash:  sha256.Sum256(doc),
		summary:  buildSummary(doc),
		cands:    cands,
		doc:      doc,
	}
	return ix
}

// Bind verifies doc against the recorded content hash and, on success,
// attaches it so replays can copy output regions without re-reading the
// file. It returns ErrStale when the bytes differ from build time.
func (ix *Index) Bind(doc []byte) error {
	if int64(len(doc)) != ix.docLen || sha256.Sum256(doc) != ix.docHash {
		return ErrStale
	}
	ix.doc = doc
	return nil
}

// Bound reports whether the index carries verified document bytes.
func (ix *Index) Bound() bool { return ix.doc != nil }

// Doc returns the bound document bytes (nil if unbound).
func (ix *Index) Doc() []byte { return ix.doc }

// DocLen returns the length of the document the index was built from.
func (ix *Index) DocLen() int64 { return ix.docLen }

// Fingerprint returns the vocabulary fingerprint the index was built for.
func (ix *Index) Fingerprint() uint64 { return ix.fp }

// Keywords returns the index's vocabulary in canonical order. Callers must
// not mutate the returned slice.
func (ix *Index) Keywords() []string { return ix.keywords }

// Candidates returns the stored candidate stream, whose Kw IDs index
// Keywords. Callers must not mutate the returned slice.
func (ix *Index) Candidates() []core.Candidate { return ix.cands }

// CandidatesFor returns the stored candidate stream with its Kw IDs in sp's
// keyword order — the ID space pipeline.Engine.Replay expects — for an
// index that Covers sp. An index built for exactly sp's vocabulary (equal
// fingerprints) shares the stored slice, uncopied. A covering superset is
// remapped into a fresh slice that drops the candidates of keywords outside
// sp's vocabulary: no state of any automaton behind sp searches for them,
// so the replay would skip them anyway. Callers must not mutate the
// returned slice.
func (ix *Index) CandidatesFor(sp *core.ScanPlan) []core.Candidate {
	if sp.Fingerprint() == ix.fp {
		return ix.cands
	}
	ids := make(map[string]int32, sp.KeywordCount())
	for i, kw := range sp.Keywords() {
		ids[kw] = int32(i)
	}
	remap := make([]int32, len(ix.keywords))
	for i, kw := range ix.keywords {
		remap[i] = -1
		if id, ok := ids[kw]; ok {
			remap[i] = id
		}
	}
	out := make([]core.Candidate, 0, len(ix.cands))
	for _, c := range ix.cands {
		if id := remap[c.Kw]; id >= 0 {
			c.Kw = id
			out = append(out, c)
		}
	}
	return out
}

// Summary returns the per-document vocabulary summary.
func (ix *Index) Summary() *Summary { return &ix.summary }

// Covers reports whether the index's vocabulary subsumes sp's, i.e. whether
// the stored stream is a sound and complete oracle for every automaton
// behind sp. Equal fingerprints are the fast path (same canonical keyword
// list); otherwise each query keyword is looked up individually, so an index
// built for a union vocabulary serves any subset query.
func (ix *Index) Covers(sp *core.ScanPlan) bool {
	if sp.Fingerprint() == ix.fp {
		return true
	}
	have := make(map[string]bool, len(ix.keywords))
	for _, kw := range ix.keywords {
		have[kw] = true
	}
	for _, kw := range sp.Keywords() {
		if !have[kw] {
			return false
		}
	}
	return true
}

// SummaryMayMatch reports whether any of sp's keywords may occur in the
// document. False is definitive: no query keyword verifies anywhere, so the
// automaton consumes zero tokens and the projection equals a replay over an
// empty candidate stream.
func (ix *Index) SummaryMayMatch(sp *core.ScanPlan) bool {
	for _, tok := range sp.Tokens() {
		if ix.summary.MayContain(tok.Name) {
			return true
		}
	}
	return false
}
