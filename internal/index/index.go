package index

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

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
// front, or verify per use with BoundTo, which leaves the Index unchanged.
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
//
// Documents of at least parallelFloor bytes build on up to GOMAXPROCS
// goroutines: the content hash runs on its own goroutine while GOMAXPROCS
// workers scan the document and sweep its summary piece by piece. The
// result — and so the sidecar bytes — is identical to a one-piece build;
// Build returns only after every goroutine it started has finished.
func Build(doc []byte, sp *core.ScanPlan) *Index {
	pieces := 1
	if procs := runtime.GOMAXPROCS(0); procs > 1 && len(doc) >= parallelFloor {
		pieces = piecesPerWorker * procs
	}
	return build(doc, sp, pieces)
}

// parallelFloor is the document size below which Build stays on the calling
// goroutine. Measured on a 2-CPU x86-64 container (K=18 XMark and K=5
// MEDLINE unions, best of five), eight pieces gain nothing at 16 KiB, break
// even at 32 KiB, build 64 KiB 1.2-1.4x and 1 MiB 1.6-1.7x faster than one
// piece.
const parallelFloor = 32 << 10

// piecesPerWorker is how many pieces a parallel build cuts per worker.
// Candidate density varies along a document — the second half of a 1 MiB
// XMark document holds 70% of its K=18 candidates — so with one piece per
// worker one worker idles while the other finishes; with four, the workers
// and the hash goroutine even out (1 MiB XMark on 2 CPUs: 3.8 ms in two
// pieces, 3.1 ms in eight).
const piecesPerWorker = 4

// build is Build with an explicit piece count. One piece runs scan, hash and
// summary in sequence on the calling goroutine. More pieces overlap the hash
// with up to GOMAXPROCS workers — the caller and its helpers — that take
// the pieces in order, each scanning the candidates and sweeping the
// summary anchors of one piece's byte range at a time.
//
// A piece [lo, hi) scans data = doc[lo:] to the end of the document with
// final set, so every candidate — keyword verification and tag-end
// resolution alike, which read only the bytes from the candidate's position
// onward — is exactly the one a whole-document scan reports. Concatenating
// the pieces' candidates in order and OR-ing the workers' summaries
// reproduces the one-piece result bit for bit.
func build(doc []byte, sp *core.ScanPlan, pieces int) *Index {
	ix := &Index{
		keywords: append([]string(nil), sp.Keywords()...),
		fp:       sp.Fingerprint(),
		docLen:   int64(len(doc)),
		doc:      doc,
	}
	cuts := cutPieces(doc, pieces)
	n := len(cuts) - 1
	workers := min(n, runtime.GOMAXPROCS(0))
	bufs := make([]*[]core.Candidate, workers)
	spans := make([]pieceSpan, n)
	sweepers := make([]sweeper, workers)
	var next atomic.Int64
	work := func(w int) {
		sc := sp.NewScanner()
		buf := scratchPool.Get().(*[]core.Candidate)
		cands := (*buf)[:0]
		for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
			lo, hi := cuts[k], cuts[k+1]
			start := len(cands)
			cands = sc.Scan(cands, doc[lo:], int64(lo), hi-lo, true)
			spans[k] = pieceSpan{w, start, len(cands)}
			sweepers[w].sweep(doc, lo, hi)
		}
		*buf = cands
		bufs[w] = buf
	}
	var wg sync.WaitGroup
	if n == 1 {
		ix.docHash = sha256.Sum256(doc)
	} else {
		wg.Add(workers)
		go func() {
			defer wg.Done()
			ix.docHash = sha256.Sum256(doc)
		}()
		for w := 1; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
	}
	work(0)
	wg.Wait()
	total := 0
	for _, ps := range spans {
		total += ps.hi - ps.lo
	}
	ix.cands = make([]core.Candidate, 0, total)
	for _, ps := range spans {
		ix.cands = append(ix.cands, (*bufs[ps.w])[ps.lo:ps.hi]...)
	}
	for w := range sweepers {
		ix.summary.merge(&sweepers[w].sum)
		if cap(*bufs[w]) <= maxPooledCandidates {
			scratchPool.Put(bufs[w])
		}
	}
	return ix
}

// pieceSpan locates one piece's candidates: (*bufs[w])[lo:hi] of the
// worker that scanned it.
type pieceSpan struct{ w, lo, hi int }

// scratchPool recycles the candidate buffers builds scan into, so a scan
// appends into capacity left by an earlier build instead of regrowing (and
// re-copying) its slice from empty; the index keeps an exact-size copy.
var scratchPool = sync.Pool{New: func() any { return new([]core.Candidate) }}

// maxPooledCandidates bounds the buffers scratchPool keeps (32 MiB of
// candidates), so one huge document does not pin its scratch.
const maxPooledCandidates = 1 << 20

// cutPieces cuts doc into at most pieces non-empty byte ranges, each but
// the first starting at a '<' anchor, and returns the range boundaries
// (cuts[k] to cuts[k+1] is piece k). An empty document is one empty piece.
func cutPieces(doc []byte, pieces int) []int {
	cuts := []int{0}
	for k := 1; k < pieces; k++ {
		at := max(len(doc)*k/pieces, cuts[len(cuts)-1]+1)
		if at >= len(doc) {
			break
		}
		i := bytes.IndexByte(doc[at:], '<')
		if i < 0 {
			break
		}
		cuts = append(cuts, at+i)
	}
	return append(cuts, len(doc))
}

// Bind verifies doc against the recorded content hash and, on success,
// attaches it so replays can copy output regions without re-reading the
// file. It returns ErrStale when the bytes differ from build time.
func (ix *Index) Bind(doc []byte) error {
	if !ix.matches(doc) {
		return ErrStale
	}
	ix.doc = doc
	return nil
}

// BoundTo verifies doc against the recorded content hash like Bind, but
// leaves ix untouched: on success it returns a shallow copy of ix bound to
// doc, sharing the immutable vocabulary and candidate stream. A run that
// verifies its own document this way never rebinds an index its caller (or
// a concurrent run) holds. It returns ErrStale when the bytes differ from
// build time.
func (ix *Index) BoundTo(doc []byte) (*Index, error) {
	if !ix.matches(doc) {
		return nil, ErrStale
	}
	bound := *ix
	bound.doc = doc
	return &bound, nil
}

// matches reports whether doc has the recorded length and content hash.
func (ix *Index) matches(doc []byte) bool {
	return int64(len(doc)) == ix.docLen && sha256.Sum256(doc) == ix.docHash
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
