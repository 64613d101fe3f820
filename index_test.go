package smp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// indexFixture compiles a prefilter, generates an XMark document and its
// serial reference projection, and builds the document's bound index.
func indexFixture(t *testing.T) (*Prefilter, []byte, []byte, *Index) {
	t.Helper()
	dtdSource, err := DatasetDTD(XMark)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Compile(dtdSource, "/*, //australia//description#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := GenerateBytes(XMark, 128<<10, 11)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := projectBytes(t, pf, doc)
	return pf, doc, want, pf.BuildIndex(doc)
}

func TestWithIndexBoundHit(t *testing.T) {
	pf, doc, want, ix := indexFixture(t)

	// A bound index carries its verified document: src may be nil.
	var out bytes.Buffer
	var st Stats
	if _, err := pf.Project(context.Background(), &out, nil, WithIndex(ix), WithStatsInto(&st)); err != nil {
		t.Fatalf("Project with bound index: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("indexed projection differs from scan")
	}
	if st.IndexHits != 1 || st.IndexSkips != 0 {
		t.Fatalf("IndexHits = %d, IndexSkips = %d, want 1, 0", st.IndexHits, st.IndexSkips)
	}
	if st.BytesRead != int64(len(doc)) {
		t.Fatalf("BytesRead = %d, want %d", st.BytesRead, len(doc))
	}
}

func TestWithIndexSidecarRoundTripFromFile(t *testing.T) {
	pf, doc, want, ix := indexFixture(t)

	dir := t.TempDir()
	docPath := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(docPath, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteFile(IndexSidecarPath(docPath)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	loaded, err := ReadIndex(IndexSidecarPath(docPath))
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if loaded.Bound() {
		t.Fatal("freshly read index is bound")
	}

	// The unbound index makes the run materialize and hash-verify the file.
	f, err := os.Open(docPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out bytes.Buffer
	var st Stats
	if _, err := pf.Project(context.Background(), &out, f, WithIndex(loaded), WithStatsInto(&st)); err != nil {
		t.Fatalf("Project with sidecar index: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("sidecar projection differs from scan")
	}
	if st.IndexHits != 1 {
		t.Fatalf("IndexHits = %d, want 1", st.IndexHits)
	}
	// The file must look consumed, as the scan path leaves it.
	if off, _ := f.Seek(0, io.SeekCurrent); off != int64(len(doc)) {
		t.Fatalf("file offset after indexed run = %d, want %d", off, len(doc))
	}
}

// TestWithIndexUnboundReusedAcrossFileRuns runs one ReadIndex result over
// the same file three times. Each run maps the file, verifies it and unmaps
// it again, so none may leave the index bound to its mapping.
func TestWithIndexUnboundReusedAcrossFileRuns(t *testing.T) {
	pf, doc, want, ix := indexFixture(t)
	docPath := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(docPath, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteFile(IndexSidecarPath(docPath)); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(IndexSidecarPath(docPath))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		f, err := os.Open(docPath)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		var st Stats
		_, err = pf.Project(context.Background(), &out, f, WithIndex(loaded), WithStatsInto(&st))
		f.Close()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !bytes.Equal(out.Bytes(), want) || st.IndexHits != 1 {
			t.Fatalf("run %d: IndexHits = %d, output equal = %v", run, st.IndexHits, bytes.Equal(out.Bytes(), want))
		}
		if loaded.Bound() {
			t.Fatalf("run %d bound the caller's index", run)
		}
	}
}

// TestWithIndexUnboundDoesNotCarryDocument offers one unbound index to a run
// over the document it was built for and then to a run over another one:
// the second run must verify its own bytes and fall back to the scan, not
// replay the first run's document.
func TestWithIndexUnboundDoesNotCarryDocument(t *testing.T) {
	pf, docA, wantA, ix := indexFixture(t)
	enc, err := ix.Encode()
	if err != nil {
		t.Fatal(err)
	}
	unbound, err := DecodeIndex(enc)
	if err != nil {
		t.Fatal(err)
	}
	docB, err := GenerateBytes(XMark, 96<<10, 12)
	if err != nil {
		t.Fatal(err)
	}
	wantB, _ := projectBytes(t, pf, docB)
	if bytes.Equal(wantA, wantB) {
		t.Fatal("fixture documents project identically")
	}
	for _, run := range []struct {
		doc, want []byte
		hits      int64
	}{{docA, wantA, 1}, {docB, wantB, 0}, {docA, wantA, 1}} {
		var out bytes.Buffer
		var st Stats
		if _, err := pf.Project(context.Background(), &out, bytes.NewReader(run.doc), WithIndex(unbound), WithStatsInto(&st)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), run.want) {
			t.Fatalf("projection of a %d-byte document differs from its scan (IndexHits = %d)", len(run.doc), st.IndexHits)
		}
		if st.IndexHits != run.hits || st.IndexHits+st.IndexSkips != 1 {
			t.Fatalf("IndexHits = %d, IndexSkips = %d, want %d hits", st.IndexHits, st.IndexSkips, run.hits)
		}
	}
	if unbound.Bound() {
		t.Fatal("runs bound the caller's index")
	}
}

// TestWithIndexUnboundSharedAcrossGoroutines shares one unbound index
// between concurrent runs; under -race it checks that verifying the
// document writes nothing the runs share.
func TestWithIndexUnboundSharedAcrossGoroutines(t *testing.T) {
	pf, doc, want, ix := indexFixture(t)
	enc, err := ix.Encode()
	if err != nil {
		t.Fatal(err)
	}
	unbound, err := DecodeIndex(enc)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			for run := 0; run < 4; run++ {
				var out bytes.Buffer
				var st Stats
				if _, err := pf.Project(context.Background(), &out, bytes.NewReader(doc), WithIndex(unbound), WithStatsInto(&st)); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(out.Bytes(), want) || st.IndexHits != 1 {
					errs <- errors.New("concurrent indexed run differs from the scan or missed the index")
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWithIndexStaleDocumentFallsBack(t *testing.T) {
	pf, doc, _, ix := indexFixture(t)
	enc, err := ix.Encode()
	if err != nil {
		t.Fatal(err)
	}
	unbound, err := DecodeIndex(enc)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the document under the sidecar: the content hash no longer
	// matches, so the run must scan the mutated bytes.
	mutated := append([]byte(nil), doc...)
	copy(mutated[bytes.Index(mutated, []byte("<description>")):], []byte("<description>X"))
	wantMutated, _ := projectBytes(t, pf, mutated)

	var out bytes.Buffer
	var st Stats
	if _, err := pf.Project(context.Background(), &out, bytes.NewReader(mutated), WithIndex(unbound), WithStatsInto(&st)); err != nil {
		t.Fatalf("Project over mutated doc: %v", err)
	}
	if !bytes.Equal(out.Bytes(), wantMutated) {
		t.Fatal("stale fall-back did not project the mutated document")
	}
	if st.IndexHits != 0 || st.IndexSkips != 1 {
		t.Fatalf("IndexHits = %d, IndexSkips = %d, want 0, 1", st.IndexHits, st.IndexSkips)
	}
}

func TestWithIndexUncoveredVocabularyFallsBack(t *testing.T) {
	_, doc, _, ix := indexFixture(t)
	dtdSource, err := DatasetDTD(XMark)
	if err != nil {
		t.Fatal(err)
	}
	// A query whose vocabulary the //australia//description index does not
	// cover must scan, even though the index is fresh and bound.
	other, err := Compile(dtdSource, "/*, //asia//payment#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantOther, _ := projectBytes(t, other, doc)

	var out bytes.Buffer
	var st Stats
	if _, err := other.Project(context.Background(), &out, bytes.NewReader(doc), WithIndex(ix), WithStatsInto(&st)); err != nil {
		t.Fatalf("Project with uncovered index: %v", err)
	}
	if !bytes.Equal(out.Bytes(), wantOther) {
		t.Fatal("uncovered fall-back output differs from scan")
	}
	if st.IndexHits != 0 || st.IndexSkips != 1 {
		t.Fatalf("IndexHits = %d, IndexSkips = %d, want 0, 1", st.IndexHits, st.IndexSkips)
	}
}

func TestWithIndexSummarySkip(t *testing.T) {
	// A document of a different vocabulary: the index's summary proves no
	// query keyword occurs, so the run replays an empty stream without
	// touching the document — and reports exactly what a scan would.
	pf, err := Compile(testDTD, "/*, //australia//description#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	foreignDoc := []byte(`<r><row>alpha</row><row>beta</row></r>`)
	ix := pf.BuildIndex(foreignDoc)
	if n := len(ix.Candidates()); n != 0 {
		t.Fatalf("foreign doc yielded %d candidates", n)
	}

	var scanOut bytes.Buffer
	_, scanErr := pf.Project(context.Background(), &scanOut, bytes.NewReader(foreignDoc))

	var out bytes.Buffer
	var st Stats
	_, ixErr := pf.Project(context.Background(), &out, nil, WithIndex(ix), WithStatsInto(&st))
	if (scanErr == nil) != (ixErr == nil) || (scanErr != nil && scanErr.Error() != ixErr.Error()) {
		t.Fatalf("scan err %v, indexed err %v", scanErr, ixErr)
	}
	if !bytes.Equal(out.Bytes(), scanOut.Bytes()) {
		t.Fatal("summary-skip output differs from scan")
	}
	if st.IndexHits != 1 || st.IndexSummarySkips != 1 {
		t.Fatalf("IndexHits = %d, IndexSummarySkips = %d, want 1, 1", st.IndexHits, st.IndexSummarySkips)
	}
	if st.BytesRead != int64(len(foreignDoc)) {
		t.Fatalf("BytesRead = %d, want %d", st.BytesRead, len(foreignDoc))
	}
}

func TestMultiProjectWithIndex(t *testing.T) {
	dtdSource, err := DatasetDTD(XMark)
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"/*, //australia//description#", "/*, //item/name#"}
	m, err := CompileMulti(dtdSource, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := GenerateBytes(XMark, 96<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, m.Len())
	for i := 0; i < m.Len(); i++ {
		want[i], _ = projectBytes(t, m.Query(i), doc)
	}
	ix := m.BuildIndex(doc)

	bufs := make([]bytes.Buffer, m.Len())
	dsts := make([]io.Writer, m.Len())
	for i := range dsts {
		dsts[i] = &bufs[i]
	}
	var st Stats
	if _, err := m.MultiProject(context.Background(), dsts, nil, WithIndex(ix), WithStatsInto(&st)); err != nil {
		t.Fatalf("MultiProject with index: %v", err)
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i].Bytes(), want[i]) {
			t.Fatalf("query %d: indexed multi projection differs from standalone scan", i)
		}
	}
	if st.IndexHits != 1 {
		t.Fatalf("IndexHits = %d, want 1", st.IndexHits)
	}

	// The union index also serves each query standalone (subset coverage).
	for i := 0; i < m.Len(); i++ {
		var out bytes.Buffer
		var qst Stats
		if _, err := m.Query(i).Project(context.Background(), &out, nil, WithIndex(ix), WithStatsInto(&qst)); err != nil {
			t.Fatalf("query %d standalone with union index: %v", i, err)
		}
		if !bytes.Equal(out.Bytes(), want[i]) {
			t.Fatalf("query %d: union-index standalone replay differs from scan", i)
		}
		if qst.IndexHits != 1 {
			t.Fatalf("query %d: IndexHits = %d, want 1", i, qst.IndexHits)
		}
	}
}

func TestBatchIndexHitsAndMidBatchDeletion(t *testing.T) {
	pf, docs, want := batchFixture(t)

	dir := t.TempDir()
	jobs := make([]BatchJob, len(docs))
	outs := make([]*syncBuffer, len(docs))
	for i, doc := range docs {
		docPath := filepath.Join(dir, "doc"+strconv.Itoa(i)+".xml")
		if err := os.WriteFile(docPath, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		// Build and persist the sidecar for every document except the last:
		// its loader will find nothing — the "sidecar deleted mid-batch"
		// shape — and must fall back to the scan, counted in IndexSkips.
		if i != len(docs)-1 {
			if err := pf.BuildIndex(doc).WriteFile(IndexSidecarPath(docPath)); err != nil {
				t.Fatal(err)
			}
		}
		outs[i] = &syncBuffer{}
		out := outs[i]
		job := BatchFromFile(docPath, "")
		job.Dst = func() (io.WriteCloser, error) { return out, nil }
		jobs[i] = WithBatchIndex(job, docPath)
	}

	batch := Batch{Prefilter: pf, Workers: 3}
	results, agg := batch.Run(context.Background(), jobs)
	if agg.Failed != 0 {
		t.Fatalf("agg.Failed = %d (results %+v)", agg.Failed, results)
	}
	for i := range docs {
		if !bytes.Equal(outs[i].Bytes(), want[i]) {
			t.Fatalf("doc %d: batch output differs from serial reference", i)
		}
	}
	if agg.IndexHits != int64(len(docs)-1) || agg.IndexSkips != 1 {
		t.Fatalf("IndexHits = %d, IndexSkips = %d, want %d, 1", agg.IndexHits, agg.IndexSkips, len(docs)-1)
	}
}
