package smp

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testDTD = `<!DOCTYPE site [
	<!ELEMENT site (regions)>
	<!ELEMENT regions (africa, asia, australia)>
	<!ELEMENT africa (item*)>
	<!ELEMENT asia (item*)>
	<!ELEMENT australia (item*)>
	<!ELEMENT item (location,name,payment,description,shipping,incategory+)>
	<!ELEMENT incategory EMPTY>
	<!ATTLIST incategory category ID #REQUIRED>
	<!ELEMENT location (#PCDATA)>
	<!ELEMENT name (#PCDATA)>
	<!ELEMENT payment (#PCDATA)>
	<!ELEMENT description (#PCDATA)>
	<!ELEMENT shipping (#PCDATA)>
]>`

const testDoc = `<site><regions><africa><item><location>United States</location><name>T V</name><payment>Creditcard</payment><description>15''LCD-FlatPanel</description><shipping>Within country</shipping><incategory category="3"/></item></africa><asia/><australia><item ><location>Egypt</location><name>PDA</name><payment>Check</payment><description>Palm Zire 71</description><shipping/><incategory category="3"/></item></australia></regions></site>`

// projectBytes runs the v2 Project over an in-memory document.
func projectBytes(t *testing.T, pf *Prefilter, doc []byte, opts ...ProjectOption) ([]byte, Stats) {
	t.Helper()
	var out bytes.Buffer
	stats, err := pf.Project(context.Background(), &out, bytes.NewReader(doc), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), stats
}

func TestCompileAndProject(t *testing.T) {
	pf, err := Compile(testDTD, "/*, //australia//description#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, stats := projectBytes(t, pf, []byte(testDoc))
	want := `<site><australia><description>Palm Zire 71</description></australia></site>`
	if string(out) != want {
		t.Errorf("projection = %q, want %q", out, want)
	}
	if stats.BytesWritten != int64(len(want)) {
		t.Errorf("BytesWritten = %d, want %d", stats.BytesWritten, len(want))
	}
	cs := pf.CompileStats()
	if cs.States == 0 || cs.States != cs.CWStates+cs.BMStates+countNoVocab(pf) {
		t.Errorf("inconsistent compile stats: %+v", cs)
	}
	if !strings.Contains(pf.DescribeTables(), "V:") {
		t.Error("DescribeTables misses the vocabulary table")
	}
}

// countNoVocab infers the number of states without a frontier vocabulary
// from the rendered tables (final states).
func countNoVocab(pf *Prefilter) int {
	return strings.Count(pf.DescribeTables(), "V: {}")
}

func TestCompileQuery(t *testing.T) {
	pf, err := CompileQuery(testDTD, "<q>{//australia//description}</q>", Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := projectBytes(t, pf, []byte(testDoc))
	if !strings.Contains(string(out), "Palm Zire 71") {
		t.Errorf("projection %q misses the australia description", out)
	}
	got := pf.Paths()
	want := []string{"/*", "//australia//description#"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Paths() = %v, want %v", got, want)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("not a dtd", "/*", Options{}); err == nil {
		t.Error("expected DTD parse error")
	}
	if _, err := Compile(testDTD, "relative/path", Options{}); err == nil {
		t.Error("expected path parse error")
	}
	if _, err := CompileQuery(testDTD, "<q>{$x/y}</q>", Options{}); err == nil {
		t.Error("expected extraction error")
	}
	recursive := `<!DOCTYPE a [ <!ELEMENT a (a?)> ]>`
	if _, err := Compile(recursive, "/*", Options{}); err == nil {
		t.Error("expected recursion error")
	}
}

func TestProjectAndProjectFile(t *testing.T) {
	pf, err := Compile(testDTD, "/*, /site/regions/australia/item/name#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pf.Project(context.Background(), &buf, strings.NewReader(testDoc)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<name>PDA</name>") {
		t.Errorf("Project output %q misses the australia item name", buf.String())
	}

	dir := t.TempDir()
	in := filepath.Join(dir, "in.xml")
	out := filepath.Join(dir, "out.xml")
	if err := os.WriteFile(in, []byte(testDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := pf.ProjectFile(context.Background(), in, out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != stats.BytesWritten {
		t.Errorf("file size %d != BytesWritten %d", len(data), stats.BytesWritten)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Error("file mode and stream mode disagree")
	}

	// File mode shares the v2 code path, so worker options apply to it too.
	outParallel := filepath.Join(dir, "out-parallel.xml")
	if _, err := pf.ProjectFile(context.Background(), in, outParallel, WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	parallel, err := os.ReadFile(outParallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parallel, data) {
		t.Errorf("ProjectFile with workers differs from serial (%d vs %d bytes)", len(parallel), len(data))
	}

	if _, err := pf.ProjectFile(context.Background(), filepath.Join(dir, "missing.xml"), out); err == nil {
		t.Error("expected error for missing input file")
	}
	if _, err := pf.ProjectFile(context.Background(), in, filepath.Join(dir, "no-such-dir", "out.xml")); err == nil {
		t.Error("expected error for unwritable output path")
	}
}

// TestProjectFilePartialCleanup checks that a projection failing mid-stream
// does not leave a truncated output file behind.
func TestProjectFilePartialCleanup(t *testing.T) {
	pf, err := Compile(testDTD, "/*, //australia//description#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "bad.xml")
	// A document that starts conforming and then breaks off mid-tag: the
	// engine copies the root before failing, so output has been written.
	bad := testDoc[:len(testDoc)-40] + "<name oops"
	if err := os.WriteFile(in, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.xml")
	if _, err := pf.ProjectFile(context.Background(), in, out); err == nil {
		t.Fatal("ProjectFile succeeded on a malformed document")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("partial output file left behind (stat err = %v)", err)
	}
}

func TestExtractPaths(t *testing.T) {
	got, err := ExtractPaths(`for $i in /site/regions/australia/item return <item name="{$i/name/text()}">{$i/description}</item>`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/*", "/site/regions/australia/item/description#", "/site/regions/australia/item/name#"}
	if len(got) != len(want) {
		t.Fatalf("ExtractPaths = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ExtractPaths[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := ExtractPaths("<q>{$undef/x}</q>"); err == nil {
		t.Error("expected extraction error")
	}
}

func TestDatasetHelpers(t *testing.T) {
	for _, d := range []Dataset{XMark, Medline} {
		dtdSrc, err := DatasetDTD(d)
		if err != nil || !strings.Contains(dtdSrc, "<!ELEMENT") {
			t.Errorf("DatasetDTD(%s): %v", d, err)
		}
		doc, err := GenerateBytes(d, 50_000, 1)
		if err != nil {
			t.Fatalf("GenerateBytes(%s): %v", d, err)
		}
		if len(doc) < 30_000 {
			t.Errorf("GenerateBytes(%s) produced only %d bytes", d, len(doc))
		}
		var buf bytes.Buffer
		n, err := Generate(d, &buf, 50_000, 1)
		if err != nil {
			t.Fatalf("Generate(%s): %v", d, err)
		}
		if n != int64(buf.Len()) || !bytes.Equal(buf.Bytes(), doc) {
			t.Errorf("Generate(%s) and GenerateBytes(%s) disagree", d, d)
		}
		qs, err := BenchmarkQueries(d)
		if err != nil || len(qs) == 0 {
			t.Errorf("BenchmarkQueries(%s): %v", d, err)
		}
	}
	if _, err := DatasetDTD("protein"); err == nil {
		t.Error("expected error for unknown dataset")
	}
	if _, err := GenerateBytes("protein", 1, 1); err == nil {
		t.Error("expected error for unknown dataset")
	}
	if _, err := Generate("protein", &bytes.Buffer{}, 1, 1); err == nil {
		t.Error("expected error for unknown dataset")
	}
	if _, err := BenchmarkQueries("protein"); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

// TestEndToEndGeneratedWorkload compiles every bundled benchmark query
// against its dataset's DTD and prefilters a generated document through the
// public API.
func TestEndToEndGeneratedWorkload(t *testing.T) {
	for _, d := range []Dataset{XMark, Medline} {
		dtdSrc, _ := DatasetDTD(d)
		doc, _ := GenerateBytes(d, 100_000, 7)
		qs, _ := BenchmarkQueries(d)
		for _, q := range qs {
			pf, err := Compile(dtdSrc, q.Paths, Options{})
			if err != nil {
				t.Errorf("%s: compile: %v", q.ID, err)
				continue
			}
			var buf bytes.Buffer
			stats, err := pf.Project(context.Background(), &buf, bytes.NewReader(doc))
			if err != nil {
				t.Errorf("%s: run: %v", q.ID, err)
				continue
			}
			out := buf.Bytes()
			if len(out) >= len(doc) {
				t.Errorf("%s: projection did not shrink the document", q.ID)
			}
			if stats.BytesRead == 0 {
				t.Errorf("%s: no bytes read", q.ID)
			}
		}
	}
}

func TestQueryByIDPublic(t *testing.T) {
	if q, ok := QueryByID("M1"); !ok || q.ID != "M1" {
		t.Error("QueryByID(M1) failed")
	}
	if _, ok := QueryByID("nope"); ok {
		t.Error("QueryByID(nope) must fail")
	}
}

// writeOnly is a destination with nothing but Write — no WriteString, no
// ReadFrom — like a socket or a hash behind an interface.
type writeOnly struct{ n int }

func (w *writeOnly) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestProjectWriteOnlyWriterAllocations checks that synthesized tags cost
// no allocation on a writer without WriteString: a default Project of XM2
// into such a writer allocates no more than the same run into a
// bytes.Buffer (whose growth it does not even pay) plus a small constant.
func TestProjectWriteOnlyWriterAllocations(t *testing.T) {
	dtdSrc, err := DatasetDTD(XMark)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := QueryByID("XM2")
	pf, err := Compile(dtdSrc, q.Paths, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{256 << 10, 1 << 20} {
		doc, err := GenerateBytes(XMark, size, 1)
		if err != nil {
			t.Fatal(err)
		}
		project := func(dst io.Writer) {
			if _, err := pf.Project(context.Background(), dst, bytes.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		}
		sink := &writeOnly{}
		project(sink)
		if sink.n == 0 {
			t.Fatalf("%d bytes: XM2 wrote nothing", size)
		}
		buffered := testing.AllocsPerRun(5, func() { project(new(bytes.Buffer)) })
		unbuffered := testing.AllocsPerRun(5, func() { project(sink) })
		t.Logf("%d bytes: %.0f allocations into a Write-only writer, %.0f into a bytes.Buffer", size, unbuffered, buffered)
		if unbuffered > buffered+8 {
			t.Errorf("%d bytes: %.0f allocations into a Write-only writer, %.0f into a bytes.Buffer", size, unbuffered, buffered)
		}
	}
}
