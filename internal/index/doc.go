// Package index persists a document's verified keyword-occurrence stream as
// a compact posting sidecar, so repeated queries replay the Fig. 4 runtime
// automaton over stored candidates instead of re-scanning the document.
//
// The paper reduces XML projection to an anchored keyword scan feeding a
// runtime automaton, and the unified pipeline (internal/pipeline) already
// exploits that the union-vocabulary candidate stream is a sound and
// complete oracle for every automaton whose vocabulary the scan subsumes —
// across K concurrent queries. This package extends the same insight across
// *time*: one scan of a static document records every verified occurrence of
// a vocabulary once, and any later query subsumed by that vocabulary replays
// the stored stream, byte-identical to a fresh scan by construction.
//
// A sidecar is versioned and self-validating (magic, version byte, payload
// checksum): truncated, bit-flipped or version-skewed files fail Decode
// cleanly and the caller falls back to scanning. Staleness is detected by
// content hash — Bind verifies the document bytes against the recorded
// sha256 before any replay — and coverage by vocabulary: an index built for
// keyword set V serves exactly the queries whose union vocabulary is a
// subset of V. Stored candidates name their keyword by its ID in V's
// canonical order; CandidatesFor hands a replay the stream in its own
// engine's IDs — the stored slice itself when the vocabularies are equal,
// a remapped copy without V's extra keywords when V is a superset. The header also carries a per-document vocabulary summary (a
// first-letter bitmap plus a small Bloom filter over the tag names occurring
// in the document), so corpus runs can prove "no query keyword occurs here"
// and skip a document's replay entirely — the paper's prefiltering idea
// applied at corpus granularity.
package index
