// Package pipeline is the one production execution engine: every
// projection run — one query or K, one worker or W, scanned or replayed
// from a persisted index — is K merged queries replaying one shared
// candidate stream cut from the document in segments, on one worker pool
// (a single query is K=1; one worker is W=1, the caller alone).
// The paper's skip-based window engine (internal/core) stays as the
// reference this package is tested against, not as a second path.
//
// The package merges what used to be two separate exploitations of the
// paper's reduction (projection → anchored keyword search replayed through
// the Fig. 4 automaton):
//
//   - intra-document parallelism (formerly internal/split): the input is
//     cut into segments backed off at '<' boundaries, W workers scan the
//     segments speculatively against the union vocabulary, and each query's
//     replay stitches its projection in input order;
//   - multi-query sharing (formerly internal/multiquery): one scan over
//     the union vocabulary of K plans serves K per-query replays, each
//     with private cursor, copy-region and writer state.
//
// Both were replays of the same candidate-stream seam (core.ScanPlan /
// core.SegmentScanner), so they compose here instead of multiplying code
// paths: the input becomes an in-order chain of scanned segments, and K
// query replays consume it, retiring segments once every live query has
// passed them. A replay of a stored stream is the same chain with the
// scan replaced by slicing the stream. The pool scans within a fixed
// lookahead of its slowest live query, so memory stays bounded by the
// segment size, and with W > 1 writes different queries' destinations from
// different goroutines (never one destination concurrently).
//
// Invariants that make every cell of the K×W grid byte-identical to a
// standalone serial core run of each query:
//
//   - Candidates are position-exhaustive for the union vocabulary: every
//     occurrence any query's state-local search could verify appears in
//     some segment's list, and segments own disjoint position ranges, so
//     there are no duplicates and the concatenated lists are sorted.
//   - In state q at cursor c, the serial engine matches the first valid
//     occurrence of q's vocabulary at or after c; a replay selects the
//     first candidate at or after its cursor whose keyword is in q's
//     vocabulary — one load from the query's dense [state × union
//     keyword ID] transition table, which is -1 outside q's vocabulary.
//     Other queries' keywords (and speculative occurrences the serial
//     search would have skipped) are invisible to it.
//   - An open copy region is flushed up to the end of every segment the
//     query finishes; the serial engine flushes at window boundaries
//     instead, but both emit the region's bytes contiguously and never
//     beyond the next match, so the concatenated output is identical.
//   - A query failing on a tag flushes its open copy region up to the
//     tag's start first, and one failing at the end of the input has
//     flushed it to the end, so the bytes before an error are the
//     projection of the input before the failure at every worker count
//     and segment cut.
//
// A compiled Engine is immutable and safe for concurrent use; every
// Project call allocates its own run state.
package pipeline
