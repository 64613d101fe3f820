package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"smp/internal/core"
	"smp/internal/index"
	"smp/internal/pipeline"
	"smp/internal/testutil"
)

func TestReplayMatchesScan(t *testing.T) {
	doc := testutil.BuildFig1Doc(96 << 10)
	specs := []string{"/*, //australia//description#", "/*, //item/name#"}
	plans := testutil.MakePlans(t, testutil.Fig1DTD, specs, core.Options{})
	eng := pipeline.New(plans)
	ix := testutil.RoundTripIndex(t, eng, doc)

	want := make([][]byte, len(plans))
	for i, p := range plans {
		out, err := testutil.SerialProject(t, p, doc)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		want[i] = out
	}

	for _, chunk := range []int{0, 64, 333, 8 << 10, 1 << 20} {
		bufs := make([]bytes.Buffer, len(plans))
		dsts := make([]io.Writer, len(plans))
		for i := range dsts {
			dsts[i] = &bufs[i]
		}
		res, err := eng.Replay(context.Background(), dsts, ix.Doc(), ix.Candidates(), pipeline.Options{ChunkSize: chunk})
		if err != nil {
			t.Fatalf("chunk %d: Replay: %v", chunk, err)
		}
		for i := range bufs {
			if !bytes.Equal(bufs[i].Bytes(), want[i]) {
				t.Fatalf("chunk %d query %d: replay output differs from scan", chunk, i)
			}
		}
		if res.Scan.BytesRead != int64(len(doc)) {
			t.Errorf("chunk %d: BytesRead = %d, want %d", chunk, res.Scan.BytesRead, len(doc))
		}
		if !res.Scan.ZeroCopyInput {
			t.Errorf("chunk %d: replay did not report zero-copy input", chunk)
		}
	}
}

func TestReplayEmptyDocument(t *testing.T) {
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{"/*, //item/name#"}, core.Options{})
	eng := pipeline.New(plans)

	// An empty stream over a nil document must diagnose exactly like a scan
	// of an empty input: end of input in the initial state.
	wantOut, wantErr := testutil.SerialProject(t, plans[0], nil)
	var buf bytes.Buffer
	_, err := eng.Replay(context.Background(), []io.Writer{&buf}, nil, nil, pipeline.Options{})
	errs := testutil.PerQueryErrors(t, err, 1)
	if (wantErr == nil) != (errs[0] == nil) || (wantErr != nil && wantErr.Error() != errs[0].Error()) {
		t.Fatalf("empty replay err = %v, serial err = %v", errs[0], wantErr)
	}
	if !bytes.Equal(buf.Bytes(), wantOut) {
		t.Fatalf("empty replay wrote %q, serial wrote %q", buf.Bytes(), wantOut)
	}
}

func TestReplayNoMatchingCandidatesEqualsScanDiagnosis(t *testing.T) {
	// A document whose tags never intersect the query vocabulary: replaying
	// the full (foreign) document with its empty matching stream and
	// replaying nothing at all must produce identical output and errors —
	// the equivalence the summary skip relies on.
	doc := []byte(`<r><rec><AbstractText>t</AbstractText></rec></r>`)
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{"/*, //item/name#"}, core.Options{})
	eng := pipeline.New(plans)
	ix := index.Build(doc, eng.ScanPlan())
	if len(ix.Candidates()) != 0 {
		t.Fatalf("foreign document produced %d candidates", len(ix.Candidates()))
	}

	run := func(d []byte, cands []core.Candidate) ([]byte, error) {
		var buf bytes.Buffer
		_, err := eng.Replay(context.Background(), []io.Writer{&buf}, d, cands, pipeline.Options{})
		return buf.Bytes(), err
	}
	outFull, errFull := run(doc, ix.Candidates())
	outNil, errNil := run(nil, nil)
	if !bytes.Equal(outFull, outNil) {
		t.Fatalf("outputs differ: %q vs %q", outFull, outNil)
	}
	if (errFull == nil) != (errNil == nil) || (errFull != nil && errFull.Error() != errNil.Error()) {
		t.Fatalf("errors differ: %v vs %v", errFull, errNil)
	}
}

func TestReplayCancelledContext(t *testing.T) {
	doc := testutil.BuildFig1Doc(32 << 10)
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{"/*, //item/name#"}, core.Options{})
	eng := pipeline.New(plans)
	ix := testutil.RoundTripIndex(t, eng, doc)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Replay(ctx, []io.Writer{io.Discard}, ix.Doc(), ix.Candidates(), pipeline.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestReplayRejectsForeignKeywordIDs checks that a candidate stream in the
// wrong ID space fails the run with an error, before any output, instead of
// indexing past the replay tables.
func TestReplayRejectsForeignKeywordIDs(t *testing.T) {
	doc := testutil.BuildFig1Doc(8 << 10)
	plans := testutil.MakePlans(t, testutil.Fig1DTD, []string{"/*, //item/name#"}, core.Options{})
	eng := pipeline.New(plans)
	ix := index.Build(doc, eng.ScanPlan())
	for _, kw := range []int32{-1, int32(eng.ScanPlan().KeywordCount())} {
		cands := append([]core.Candidate(nil), ix.Candidates()...)
		cands[len(cands)/2].Kw = kw
		var buf bytes.Buffer
		_, err := eng.Replay(context.Background(), []io.Writer{&buf}, doc, cands, pipeline.Options{})
		if err == nil || !strings.Contains(err.Error(), "outside the engine's") {
			t.Errorf("Kw %d: Replay err = %v, want an out-of-vocabulary error", kw, err)
		}
		if buf.Len() != 0 {
			t.Errorf("Kw %d: Replay wrote %d bytes before failing", kw, buf.Len())
		}
	}
}
