package index_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smp/internal/core"
	"smp/internal/index"
	"smp/internal/testutil"
)

func buildFig1Index(t *testing.T, specs []string, doc []byte) (*index.Index, *core.ScanPlan) {
	t.Helper()
	plans := testutil.MakePlans(t, testutil.Fig1DTD, specs, core.Options{})
	sp := core.NewScanPlanUnion(plans)
	return index.Build(doc, sp), sp
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	doc := testutil.BuildFig1Doc(64 << 10)
	ix, sp := buildFig1Index(t, []string{"/*, //australia//description#", "/*, //item/name#"}, doc)

	enc, err := ix.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := index.Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Bound() {
		t.Fatal("decoded index is bound before Bind")
	}
	if !reflect.DeepEqual(dec.Keywords(), ix.Keywords()) {
		t.Fatalf("keywords: got %v, want %v", dec.Keywords(), ix.Keywords())
	}
	if dec.Fingerprint() != sp.Fingerprint() {
		t.Fatalf("fingerprint: got %#x, want %#x", dec.Fingerprint(), sp.Fingerprint())
	}
	if dec.DocLen() != int64(len(doc)) {
		t.Fatalf("docLen: got %d, want %d", dec.DocLen(), len(doc))
	}
	got, want := dec.Candidates(), ix.Candidates()
	if len(got) != len(want) {
		t.Fatalf("candidates: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g != w || !g.Complete {
			t.Fatalf("candidate %d: got %+v, want %+v", i, g, w)
		}
	}
	if err := dec.Bind(doc); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if !dec.Bound() || !bytes.Equal(dec.Doc(), doc) {
		t.Fatal("Bind did not attach the document")
	}

	// A second encode of the decoded index must be byte-identical: the
	// format has one canonical serialization.
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("Encode(Decode(x)) differs from x")
	}
}

func TestBindDetectsStaleness(t *testing.T) {
	doc := testutil.BuildFig1Doc(8 << 10)
	ix, _ := buildFig1Index(t, []string{"/*, //item/name#"}, doc)
	enc, err := ix.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := index.Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	mutated := append([]byte(nil), doc...)
	mutated[len(mutated)/2] ^= 1
	if err := dec.Bind(mutated); !errors.Is(err, index.ErrStale) {
		t.Fatalf("Bind(mutated) = %v, want ErrStale", err)
	}
	if err := dec.Bind(doc[:len(doc)-1]); !errors.Is(err, index.ErrStale) {
		t.Fatalf("Bind(truncated) = %v, want ErrStale", err)
	}
	if dec.Bound() {
		t.Fatal("failed Bind left the index bound")
	}
	if _, err := dec.BoundTo(mutated); !errors.Is(err, index.ErrStale) {
		t.Fatalf("BoundTo(mutated) = %v, want ErrStale", err)
	}
	bound, err := dec.BoundTo(doc)
	if err != nil {
		t.Fatalf("BoundTo(original) = %v", err)
	}
	if dec.Bound() || !bound.Bound() || !bytes.Equal(bound.Doc(), doc) {
		t.Fatal("BoundTo must bind a copy and leave the index unbound")
	}
	if !reflect.DeepEqual(bound.Candidates(), dec.Candidates()) || bound.Fingerprint() != dec.Fingerprint() {
		t.Fatal("BoundTo copy differs from the index")
	}
	if err := dec.Bind(doc); err != nil {
		t.Fatalf("Bind(original) = %v", err)
	}
}

func TestCoversSubsetAndDisjoint(t *testing.T) {
	doc := testutil.BuildFig1Doc(4 << 10)
	unionSpecs := []string{"/*, //australia//description#", "/*, //item/name#", "/*, //item/payment#"}
	ix, unionSP := buildFig1Index(t, unionSpecs, doc)

	if !ix.Covers(unionSP) {
		t.Fatal("index does not cover its own vocabulary")
	}
	subsetSP := core.NewScanPlanUnion(testutil.MakePlans(t, testutil.Fig1DTD, unionSpecs[:1], core.Options{}))
	if !ix.Covers(subsetSP) {
		t.Fatal("index does not cover a vocabulary subset")
	}
	otherSP := core.NewScanPlanUnion(testutil.MakePlans(t, testutil.Fig1DTD, []string{"/*, //asia//shipping#"}, core.Options{}))
	if ix.Covers(otherSP) {
		t.Fatal("index claims to cover a vocabulary it was not built for")
	}
}

// TestCandidatesForRemapsSuperset checks the translation a replay runs
// on: an index shares its stored stream with an engine of the same
// vocabulary, and hands a covered subset exactly the stored candidates of
// the subset's keywords, renumbered to the subset's IDs — the candidates a
// scan with the subset vocabulary finds.
func TestCandidatesForRemapsSuperset(t *testing.T) {
	doc := testutil.BuildFig1Doc(16 << 10)
	unionSpecs := []string{"/*, //australia//description#", "/*, //item/name#", "/*, //item/payment#"}
	ix, unionSP := buildFig1Index(t, unionSpecs, doc)
	if got := ix.CandidatesFor(unionSP); len(got) == 0 || &got[0] != &ix.Candidates()[0] {
		t.Fatal("CandidatesFor copied the stream for the index's own vocabulary")
	}
	subsetSP := core.NewScanPlanUnion(testutil.MakePlans(t, testutil.Fig1DTD, unionSpecs[1:2], core.Options{}))
	got := ix.CandidatesFor(subsetSP)
	want := subsetSP.NewScanner().Scan(nil, doc, 0, len(doc), true)
	if len(want) == 0 || len(want) == len(ix.Candidates()) {
		t.Fatalf("subset scan found %d of the index's %d candidates; the fixture drops nothing", len(want), len(ix.Candidates()))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("remapped stream (%d candidates) differs from a subset scan (%d)", len(got), len(want))
	}
}

func TestSummaryHasNoFalseNegatives(t *testing.T) {
	doc := testutil.BuildFig1Doc(16 << 10)
	ix, sp := buildFig1Index(t, []string{"/*, //australia//description#", "/*, //item/name#"}, doc)
	// Every tag name that actually occurs must be reported as possible.
	for _, name := range []string{"site", "regions", "africa", "asia", "australia",
		"item", "location", "name", "payment", "description", "shipping", "incategory"} {
		if !ix.Summary().MayContain(name) {
			t.Errorf("summary denies %q, which occurs in the document", name)
		}
	}
	if ix.Summary().MayContain("zzz-not-a-tag") {
		t.Log("summary false positive on absent name (allowed, just noting)")
	}
	if !ix.SummaryMayMatch(sp) {
		t.Fatal("SummaryMayMatch denies the vocabulary the index was scanned with")
	}
	// A vocabulary over a different document type cannot occur here.
	foreign := core.NewScanPlanUnion(testutil.MakePlans(t, testutil.PrefixDTD, []string{"/*, //AbstractText#"}, core.Options{}))
	if ix.SummaryMayMatch(foreign) {
		t.Skip("summary reports a (legal) Bloom false positive for the foreign vocabulary")
	}
}

func TestSidecarFiles(t *testing.T) {
	doc := testutil.BuildFig1Doc(4 << 10)
	ix, _ := buildFig1Index(t, []string{"/*, //item/name#"}, doc)

	dir := t.TempDir()
	docPath := filepath.Join(dir, "doc.xml")
	scPath := index.SidecarPath(docPath)
	if scPath != docPath+index.SidecarExt {
		t.Fatalf("SidecarPath = %q", scPath)
	}
	if err := ix.WriteFile(scPath); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	dec, err := index.ReadFile(scPath)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := dec.Bind(doc); err != nil {
		t.Fatalf("Bind after ReadFile: %v", err)
	}
	if _, err := index.ReadFile(filepath.Join(dir, "missing.smpidx")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ReadFile(missing) = %v, want ErrNotExist", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	doc := testutil.BuildFig1Doc(8 << 10)
	ix, _ := buildFig1Index(t, []string{"/*, //item/name#"}, doc)
	enc, err := ix.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	cases := map[string][]byte{
		"empty":       {},
		"short":       enc[:8],
		"truncated":   enc[:len(enc)-5],
		"bad magic":   append([]byte("XPMS"), enc[4:]...),
		"bad version": append(append([]byte{}, enc[:4]...), append([]byte{99}, enc[5:]...)...),
	}
	for i := 8; i < len(enc); i += len(enc) / 17 {
		flipped := append([]byte(nil), enc...)
		flipped[i] ^= 0x10
		cases["bitflip@"+string(rune('a'+i%26))] = flipped
	}
	for name, data := range cases {
		if _, err := index.Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt sidecar", name)
		} else if !errors.Is(err, index.ErrCorrupt) {
			t.Errorf("%s: error %v is not ErrCorrupt", name, err)
		}
	}
}
