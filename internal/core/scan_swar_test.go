package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"smp/internal/compile"
	"smp/internal/dtd"
	"smp/internal/paths"
	"smp/internal/xmlgen"
)

// prefixScanDTD has tagnames that are prefixes of each other around the
// 8-byte word boundary ("<Abstract" is 9 bytes, "<AbstractText" 13), so the
// SWAR word compare alone cannot decide them and the >8-byte tail compare
// must run.
const prefixScanDTD = `<!DOCTYPE r [
	<!ELEMENT r (rec*)>
	<!ELEMENT rec (Abstract?, AbstractText, ab?)>
	<!ELEMENT Abstract (#PCDATA)>
	<!ELEMENT AbstractText (#PCDATA)>
	<!ELEMENT ab (#PCDATA)>
]>`

func makeScanPlan(t testing.TB, dtdSrc string, specs ...string) *ScanPlan {
	t.Helper()
	plans := make([]*Plan, len(specs))
	for i, spec := range specs {
		table, err := compile.Compile(dtd.MustParse(dtdSrc), paths.MustParseSet(spec), compile.Options{})
		if err != nil {
			t.Fatalf("compile %q: %v", spec, err)
		}
		plans[i] = NewPlan(table, Options{})
	}
	return NewScanPlanUnion(plans)
}

// diffKernels scans data with both kernels and fails the test on any
// difference in the candidate stream or the counters. It returns the SWAR
// candidates for additional assertions.
func diffKernels(t testing.TB, sp *ScanPlan, data []byte, base int64, owned int, final bool) []Candidate {
	t.Helper()
	swar := sp.NewScanner()
	scalar := sp.NewScanner()
	got := swar.scanSWAR(nil, data, base, owned, final)
	want := scalar.scanScalar(nil, data, base, owned, final)
	if len(got) != len(want) {
		t.Fatalf("owned=%d final=%v: SWAR found %d candidates, scalar %d\ninput: %q\nswar:   %+v\nscalar: %+v",
			owned, final, len(got), len(want), clip(data), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g != w {
			t.Fatalf("owned=%d final=%v: candidate %d differs\nswar:   %+v\nscalar: %+v\ninput: %q",
				owned, final, i, g, w, clip(data))
		}
	}
	gm, gi, gr := swar.Counters()
	wm, wi, wr := scalar.Counters()
	if gm != wm || gi != wi || gr != wr {
		t.Fatalf("owned=%d final=%v: counters differ: SWAR (%+v, %d, %d) vs scalar (%+v, %d, %d)\ninput: %q",
			owned, final, gm, gi, gr, wm, wi, wr, clip(data))
	}
	return got
}

func clip(data []byte) string {
	if len(data) > 256 {
		return string(data[:256]) + "..."
	}
	return string(data)
}

func TestScanSWAREquivalence(t *testing.T) {
	fig1 := makeScanPlan(t, fig1DTD, "/*, //australia//description#")
	prefix := makeScanPlan(t, prefixScanDTD, "/*, //AbstractText#", "//Abstract#, //ab")
	cases := []struct {
		name string
		sp   *ScanPlan
		data string
	}{
		{"empty", fig1, ""},
		{"no anchors", fig1, "plain text without any tags at all"},
		{"smaller than one word", fig1, "<a>"},
		{"lone anchor", fig1, "<"},
		{"word of anchors", fig1, "<<<<<<<<"},
		{"anchor runs", fig1, "<<<<<<<<<<<<<<<<<item><<<<"},
		{"simple document", fig1, "<site><regions><australia><item><description>x</description></item></australia></regions></site>"},
		{"anchors in the final sub-word tail", fig1, strings.Repeat("x", 16) + "<item>"},
		{"keyword straddles the word boundary", fig1, "abcde<item>after the first load word"},
		{"long keyword straddles several words", fig1, "abc<description attr=\"v\">tail</description>"},
		{"keyword at last owned byte", fig1, strings.Repeat(".", 31) + "<item>trailing lookahead bytes"},
		{"truncated keyword at data end", fig1, "text<item"},
		{"terminator missing at data end", fig1, "text<descri"},
		{"tag end past data end", fig1, "pad<item attr=\"unterminated"},
		{"bachelor and quoted attrs", fig1, `<site><incategory category="a>b"/><item x='<'>y</item></site>`},
		{"prefix collision short vs long", prefix, "<r><rec><Abstract>a</Abstract><AbstractText>b</AbstractText><ab>c</ab></rec></r>"},
		{"prefix valid only as longer keyword", prefix, "<AbstractTextual><AbstractText ><Abstracted><Abstract\t>"},
		{"closing prefix collision", prefix, "</AbstractText></Abstract></ab></r>"},
		{"rejected terminator", fig1, "<itemize><item=><item/>"},
		{"max tag straddling", fig1, "<item " + strings.Repeat("a", 40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.data)
			for _, final := range []bool{true, false} {
				// Every owned split, including owned < len(data) (segment
				// lookahead) and the full range.
				for owned := 0; owned <= len(data); owned++ {
					diffKernels(t, tc.sp, data, 0, owned, final)
				}
			}
			// Non-zero base offsets must only shift reported positions.
			full := diffKernels(t, tc.sp, data, 1<<32, len(data), true)
			for _, c := range full {
				if c.Pos < 1<<32 {
					t.Fatalf("candidate position %d below base", c.Pos)
				}
			}
		})
	}
}

// TestScanSWARTailAnchor pins the sub-word tail loop: an anchor on the very
// last owned byte, with and without lookahead, must behave exactly like the
// scalar kernel (invalid when the keyword cannot fit before the data end,
// found when the lookahead holds the rest).
func TestScanSWARTailAnchor(t *testing.T) {
	sp := makeScanPlan(t, fig1DTD, "/*, //australia//description#")
	doc := []byte("0123456789abcde<site>xyz")
	anchor := 15

	// owned ends right on the anchor: the keyword lives in the lookahead.
	got := diffKernels(t, sp, doc, 0, anchor+1, false)
	if len(got) != 1 || got[0].Pos != int64(anchor) {
		t.Fatalf("anchor on last owned byte: got %+v, want one candidate at %d", got, anchor)
	}
	// Final data cut inside the keyword: no candidate on either kernel.
	if got := diffKernels(t, sp, doc[:anchor+3], 0, anchor+3, true); len(got) != 0 {
		t.Fatalf("truncated keyword: got %+v, want none", got)
	}
}

// TestCandidateIsPointerFree pins the candidate layout the replay relies
// on: at most 32 bytes, and no field the garbage collector has to scan.
func TestCandidateIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(Candidate{}); size > 32 {
		t.Errorf("unsafe.Sizeof(Candidate{}) = %d, want <= 32", size)
	}
	typ := reflect.TypeOf(Candidate{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Candidate.%s has kind %s, which may hold a pointer", f.Name, f.Type.Kind())
		}
	}
}

// TestCandidateKeywordIDsAndFailures checks what a candidate carries
// instead of a token and an error: Kw names the keyword found at Pos in the
// plan's Keywords/Tokens order, and Err rebuilds each failure's exact error.
func TestCandidateKeywordIDsAndFailures(t *testing.T) {
	sp := makeScanPlan(t, prefixScanDTD, "/*, //AbstractText#", "//Abstract#, //ab")
	doc := []byte("<r><rec><Abstract>a</Abstract><AbstractText>b</AbstractText><ab/></rec></r><ab " + strings.Repeat("x", MaxTagLength) + "><Abstract attr")
	cands := sp.NewScanner().Scan(nil, doc, 0, len(doc), true)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	kws, toks := sp.Keywords(), sp.Tokens()
	if len(toks) != len(kws) {
		t.Fatalf("%d tokens for %d keywords", len(toks), len(kws))
	}
	fails := map[FailKind]int{}
	for _, c := range cands {
		kw := kws[c.Kw]
		if got := string(doc[c.Pos : c.Pos+int64(c.KwLen)]); got != kw {
			t.Errorf("candidate at %d: Kw %d names %q, document has %q", c.Pos, c.Kw, kw, got)
		}
		if toks[c.Kw].Keyword() != kw {
			t.Errorf("token %v of keyword %q spells %q", toks[c.Kw], kw, toks[c.Kw].Keyword())
		}
		fails[c.Fail]++
		var want error
		switch c.Fail {
		case FailTagTooLong:
			want = TagTooLongError(c.Pos)
		case FailEOFInsideTag:
			want = EOFInsideTagError(c.Pos)
		}
		if fmt.Sprint(c.Err()) != fmt.Sprint(want) {
			t.Errorf("candidate at %d: Err() = %v, want %v", c.Pos, c.Err(), want)
		}
	}
	if fails[FailTagTooLong] != 1 || fails[FailEOFInsideTag] != 1 {
		t.Errorf("failure kinds = %v, want one tag-too-long and one EOF-inside-tag", fails)
	}
}

func FuzzScanEquivalence(f *testing.F) {
	fig1 := makeScanPlan(f, fig1DTD, "/*, //australia//description#")
	prefix := makeScanPlan(f, prefixScanDTD, "/*, //AbstractText#", "//Abstract#, //ab")
	f.Add([]byte("<site><regions><australia><item><description>x</description></item></australia></regions></site>"), 20, true)
	f.Add([]byte("<Abstract ><AbstractText><ab/></AbstractText>"), 45, false)
	f.Add([]byte("<<<<<<<<<<<<<<<<"), 9, true)
	f.Add([]byte("text<item attr=\"a>b\" unterminated"), 33, false)
	f.Add([]byte(strings.Repeat("x", 13)+"<description"), 25, true)
	f.Fuzz(func(t *testing.T, data []byte, owned int, final bool) {
		if owned < 0 {
			owned = -owned
		}
		if owned > len(data) {
			owned = len(data)
		}
		diffKernels(t, fig1, data, 0, owned, final)
		diffKernels(t, prefix, data, 0, owned, final)
	})
}

// BenchmarkScanKernel measures raw scan-kernel throughput (candidate
// discovery only, no automaton replay) on generated XMark data, one
// sub-benchmark per kernel. smpbench -scan reports the same comparison on
// full-size inputs alongside the memchr bandwidth reference.
func BenchmarkScanKernel(b *testing.B) {
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 4 << 20, Seed: 7})
	sp := makeScanPlan(b, xmlgen.XMarkDTD(), "/*, //australia//description#")
	kernels := []struct {
		name string
		scan func(s *SegmentScanner, dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate
	}{
		{"swar", (*SegmentScanner).scanSWAR},
		{"scalar", (*SegmentScanner).scanScalar},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			s := sp.NewScanner()
			var dst []Candidate
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = k.scan(s, dst[:0], doc, 0, len(doc), true)
			}
			if len(dst) == 0 {
				b.Fatal("no candidates on XMark data")
			}
		})
	}
}

// TestAnchorMask checks the exported block mask bit for bit against a byte
// loop, including '<' next to the bytes (0x3B, 0x3D, 0xBC) that differ from
// it in one bit and lanes after a match, where a borrowing haszero would
// report false positives.
func TestAnchorMask(t *testing.T) {
	blocks := [][]byte{
		make([]byte, 64),
		[]byte(strings.Repeat("<", 64)),
		[]byte(strings.Repeat("<\x01;=\xbc|", 11)[:64]),
	}
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 8 << 10, Seed: 4})
	for off := 0; off+64 <= len(doc); off += 37 {
		blocks = append(blocks, doc[off:off+64])
	}
	for _, b := range blocks {
		var want uint64
		for k := 0; k < 64; k++ {
			if b[k] == '<' {
				want |= 1 << k
			}
		}
		if got := AnchorMask(b); got != want {
			t.Fatalf("AnchorMask(%q) = %#x, want %#x", b, got, want)
		}
	}
}
