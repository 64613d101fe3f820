package index

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/paths"
	"smp/internal/xmlgen"
)

// The sequential reference Build is checked against: one whole-document
// Scan, one sha256 and the byte-at-a-time summary sweep, exactly as Build
// ran before it was split into pieces.

func oracleBuild(doc []byte, sp *core.ScanPlan) *Index {
	return &Index{
		keywords: append([]string(nil), sp.Keywords()...),
		fp:       sp.Fingerprint(),
		docLen:   int64(len(doc)),
		docHash:  sha256.Sum256(doc),
		summary:  oracleSummary(doc),
		cands:    sp.NewScanner().Scan(nil, doc, 0, len(doc), true),
		doc:      doc,
	}
}

func oracleNameStop(c byte) bool {
	switch c {
	case ' ', '\t', '\r', '\n', '>', '/', '<', '"', '\'':
		return true
	}
	return false
}

func oracleSummary(doc []byte) Summary {
	var s Summary
	for i := 0; i < len(doc); i++ {
		if doc[i] != '<' {
			continue
		}
		j := i + 1
		if j < len(doc) && doc[j] == '/' {
			j++
		}
		start := j
		for j < len(doc) && !oracleNameStop(doc[j]) {
			j++
		}
		if j > start {
			s.add(doc[start:j])
		}
		i = start - 1
	}
	return s
}

// unionScanPlan is the scan plan of the union of every query of a dataset:
// K=18 for XMark, K=5 for MEDLINE.
func unionScanPlan(dtdSrc string, qs []xmlgen.Query) *core.ScanPlan {
	schema := dtd.MustParse(dtdSrc)
	var plans []*core.Plan
	for _, q := range qs {
		table, err := compile.Compile(schema, paths.MustParseSet(q.Paths), compile.Options{})
		if err != nil {
			panic(fmt.Sprintf("compile %s: %v", q.ID, err))
		}
		plans = append(plans, core.NewPlan(table, core.Options{}))
	}
	return core.NewScanPlanUnion(plans)
}

var (
	xmarkSP   = sync.OnceValue(func() *core.ScanPlan { return unionScanPlan(xmlgen.XMarkDTD(), xmlgen.XMarkQueries()) })
	medlineSP = sync.OnceValue(func() *core.ScanPlan { return unionScanPlan(xmlgen.MedlineDTD(), xmlgen.MedlineQueries()) })
)

// checkBuild requires build(doc, sp, pieces) to encode to the oracle's
// bytes — summary and candidates included — and to be bound to doc.
func checkBuild(t *testing.T, doc []byte, sp *core.ScanPlan, pieces int) {
	t.Helper()
	want := oracleBuild(doc, sp)
	got := build(doc, sp, pieces)
	if got.summary != want.summary {
		t.Fatalf("pieces=%d: summary differs from the byte-at-a-time sweep", pieces)
	}
	wantEnc, wantErr := want.Encode()
	gotEnc, gotErr := got.Encode()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("pieces=%d: Encode error %v, want %v", pieces, gotErr, wantErr)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("pieces=%d: sidecar bytes differ from the sequential build (%d vs %d bytes, %d vs %d candidates)",
			pieces, len(gotEnc), len(wantEnc), len(got.cands), len(want.cands))
	}
	if !bytes.Equal(got.doc, doc) {
		t.Fatalf("pieces=%d: index not bound to the document", pieces)
	}
}

func TestBuildPiecesMatchSequential(t *testing.T) {
	sizes := []int{0, 1, 63 << 10, 1 << 20}
	if testing.Short() {
		sizes = sizes[:3]
	}
	for _, ds := range []struct {
		name string
		sp   *core.ScanPlan
		gen  func(xmlgen.Config) []byte
	}{
		{"xmark", xmarkSP(), xmlgen.XMarkBytes},
		{"medline", medlineSP(), xmlgen.MedlineBytes},
	} {
		for _, size := range sizes {
			doc := ds.gen(xmlgen.Config{TargetSize: int64(size), Seed: 3})
			doc = doc[:min(len(doc), size)]
			t.Run(fmt.Sprintf("%s/%d", ds.name, size), func(t *testing.T) {
				for pieces := 1; pieces <= 8; pieces++ {
					checkBuild(t, doc, ds.sp, pieces)
				}
			})
		}
	}
}

// edgeDocs are the documents whose anchors, names and tag ends sit where a
// piece boundary or the sweep's repeat check could go wrong.
func edgeDocs() map[string][]byte {
	xmark := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 4 << 10, Seed: 5})
	long := "<site><regions><africa><item id=\"i\"><description a=\"" +
		strings.Repeat("x", core.MaxTagLength+16) + "\">text</description></item></africa></regions></site>"
	return map[string][]byte{
		"no anchor":         []byte(strings.Repeat("plain text, no tags at all ", 100)),
		"anchor last":       append(append([]byte(nil), xmark...), '<'),
		"closing last":      append(append([]byte(nil), xmark...), "</"...),
		"lone anchor":       []byte("<"),
		"lone closing":      []byte("</"),
		"truncated tag":     append(append([]byte(nil), xmark...), "<item id=\"x"...),
		"truncated closing": append(append([]byte(nil), xmark...), "</description"...),
		"tag too long":      []byte(long),
		"long names share first byte": []byte(strings.Repeat(
			"<description><descriptions>x</descriptions><description_2/><descript>y</descript></description>"+
				"<incategory category=\"c\"/><increase>1</increase><interest/><incategory/>", 40)),
		"non-ASCII names": []byte(strings.Repeat(
			"<名前>x</名前><näme a='1'>y</näme><ñ/><名前/><\xff\xfe>z</\xff\xfe><é>", 30)),
		"anchors in values": []byte(strings.Repeat(
			"<item a=\"<description>\" b='</name>'><!-- <name> <keyword> --><![CDATA[<text>]]><name>n</name></item>", 30)),
		"anchor runs": []byte(strings.Repeat("<<<</</ <\t<>< /", 50)),
		"name to eof": append(append([]byte(nil), xmark...), "<description"...),
	}
}

func TestBuildEdgeDocuments(t *testing.T) {
	for name, doc := range edgeDocs() {
		if testing.Short() && len(doc) > 1<<20 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for pieces := 1; pieces <= 8; pieces++ {
				checkBuild(t, doc, xmarkSP(), pieces)
				checkBuild(t, doc, medlineSP(), pieces)
			}
		})
	}
}

// TestBuildAroundParallelFloor runs the exported Build on both sides of the
// size floor, where it switches from one piece to several.
func TestBuildAroundParallelFloor(t *testing.T) {
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 4 * parallelFloor, Seed: 9})
	for _, n := range []int{parallelFloor - 1, parallelFloor, len(doc)} {
		d := doc[:n]
		want, _ := oracleBuild(d, xmarkSP()).Encode()
		got, _ := Build(d, xmarkSP()).Encode()
		if !bytes.Equal(got, want) {
			t.Fatalf("Build of %d bytes differs from the sequential build", n)
		}
	}
}

func TestCutPieces(t *testing.T) {
	for _, tc := range []struct {
		doc    string
		pieces int
		want   []int
	}{
		{"", 4, []int{0, 0}},
		{"abc", 3, []int{0, 3}},
		{"<a><b><c><d>", 4, []int{0, 3, 6, 9, 12}},
		{"<a><b><c><d>", 1, []int{0, 12}},
		{"<abcdefgh>", 4, []int{0, 10}},
		{"<a>xxxxxxxxxxxxxxxxxxxxxx<b>", 8, []int{0, 25, 28}},
		{"<<<<", 8, []int{0, 1, 2, 3, 4}},
	} {
		got := cutPieces([]byte(tc.doc), tc.pieces)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("cutPieces(%q, %d) = %v, want %v", tc.doc, tc.pieces, got, tc.want)
		}
	}
}

// TestBuildLeavesNoGoroutines checks that Build joins every goroutine it
// starts before it returns.
func TestBuildLeavesNoGoroutines(t *testing.T) {
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 256 << 10, Seed: 2})
	before := runtime.NumGoroutine()
	for pieces := 1; pieces <= 8; pieces++ {
		build(doc, xmarkSP(), pieces)
	}
	Build(doc, xmarkSP())
	// A goroutine that has signalled the WaitGroup may not have exited yet.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Build, %d before", n, before)
	}
}

// FuzzIndexBuild differences the piecewise build against the sequential
// reference on random and mutated documents: equal sidecar bytes for any
// piece count, and an equal summary for a sweep split at any offset.
func FuzzIndexBuild(f *testing.F) {
	for seed := uint64(1); seed <= 3; seed++ {
		f.Add(xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 2 << 10, Seed: seed}), uint8(seed), uint16(seed*100))
		f.Add(xmlgen.MedlineBytes(xmlgen.Config{TargetSize: 2 << 10, Seed: seed}), uint8(seed+3), uint16(seed*300))
	}
	for name, doc := range edgeDocs() {
		if len(doc) <= 16<<10 {
			f.Add(doc, uint8(len(name)), uint16(len(doc)/2))
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte, pieces uint8, split uint16) {
		// A tag without '>' is scanned to the end of the input, so the cost
		// of a document grows with its square; keep executions fast.
		doc = doc[:min(len(doc), 16<<10)]
		for _, sp := range []*core.ScanPlan{xmarkSP(), medlineSP()} {
			checkBuild(t, doc, sp, 1+int(pieces)%8)
		}
		at := int(split) % (len(doc) + 1)
		var head, tail sweeper
		head.sweep(doc, 0, at)
		tail.sweep(doc, at, len(doc))
		head.sum.merge(&tail.sum)
		if head.sum != oracleSummary(doc) {
			t.Fatalf("summary swept in two parts at %d differs from the byte-at-a-time sweep", at)
		}
	})
}

func BenchmarkBuild(b *testing.B) {
	for _, ds := range []struct {
		name string
		sp   *core.ScanPlan
		doc  []byte
	}{
		{"xmark", xmarkSP(), xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 1 << 20, Seed: 1})},
		{"medline", medlineSP(), xmlgen.MedlineBytes(xmlgen.Config{TargetSize: 1 << 20, Seed: 1})},
	} {
		b.Run(ds.name+"/sequential-reference", func(b *testing.B) {
			b.SetBytes(int64(len(ds.doc)))
			for i := 0; i < b.N; i++ {
				oracleBuild(ds.doc, ds.sp)
			}
		})
		b.Run(ds.name+"/summary-reference", func(b *testing.B) {
			b.SetBytes(int64(len(ds.doc)))
			for i := 0; i < b.N; i++ {
				oracleSummary(ds.doc)
			}
		})
		b.Run(ds.name+"/summary", func(b *testing.B) {
			b.SetBytes(int64(len(ds.doc)))
			for i := 0; i < b.N; i++ {
				var sw sweeper
				sw.sweep(ds.doc, 0, len(ds.doc))
			}
		})
		b.Run(ds.name+"/scan", func(b *testing.B) {
			b.SetBytes(int64(len(ds.doc)))
			for i := 0; i < b.N; i++ {
				ds.sp.NewScanner().Scan(nil, ds.doc, 0, len(ds.doc), true)
			}
		})
		b.Run(ds.name+"/sha256", func(b *testing.B) {
			b.SetBytes(int64(len(ds.doc)))
			for i := 0; i < b.N; i++ {
				sha256.Sum256(ds.doc)
			}
		})
		b.Run(ds.name+"/pieces=1", func(b *testing.B) {
			b.SetBytes(int64(len(ds.doc)))
			for i := 0; i < b.N; i++ {
				build(ds.doc, ds.sp, 1)
			}
		})
		b.Run(ds.name+"/Build", func(b *testing.B) {
			b.SetBytes(int64(len(ds.doc)))
			for i := 0; i < b.N; i++ {
				Build(ds.doc, ds.sp)
			}
		})
	}
}
