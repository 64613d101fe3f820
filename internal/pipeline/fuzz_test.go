package pipeline_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/paths"
	"smp/internal/pipeline"
	"smp/internal/testutil"
	"smp/internal/xmlgen"
)

func mustPlan(dtdSrc, pathSpec string) *core.Plan {
	table, err := compile.Compile(dtd.MustParse(dtdSrc), paths.MustParseSet(pathSpec), compile.Options{})
	if err != nil {
		panic(err)
	}
	// A tiny chunk size keeps the lookahead small, so even short fuzz
	// inputs take the parallel path.
	return core.NewPlan(table, core.Options{ChunkSize: 48})
}

// fuzzSingle holds one K=1 engine per fixture query.
var fuzzSingle = sync.OnceValue(func() []*pipeline.Engine {
	specs := []struct{ dtdSrc, pathSpec string }{
		{testutil.Fig1DTD, "/*, //australia//description#"},
		{testutil.Fig1DTD, "/*, //item/name#"},
		{testutil.PrefixDTD, "/*, //AbstractText#"},
	}
	var engines []*pipeline.Engine
	for _, s := range specs {
		engines = append(engines, pipeline.New([]*core.Plan{mustPlan(s.dtdSrc, s.pathSpec)}))
	}
	return engines
})

// fuzzMultiPlans compiles the multi-query fixture once: three overlapping
// queries over the Fig. 1 DTD plus three prefix-colliding queries — the
// union vocabulary mixes short, long and prefix-sharing keywords.
var fuzzMultiPlans = sync.OnceValue(func() [][]*core.Plan {
	sets := []struct {
		dtdSrc string
		specs  []string
	}{
		{testutil.Fig1DTD, []string{"/*, //australia//description#", "/*, //item/name#", "/*, //asia//item#"}},
		{testutil.PrefixDTD, []string{"/*, //Abstract#", "/*, //AbstractText#", "/*, //AbstractTextTranslatedVersion#"}},
	}
	var out [][]*core.Plan
	for _, s := range sets {
		var plans []*core.Plan
		for _, spec := range s.specs {
			plans = append(plans, mustPlan(s.dtdSrc, spec))
		}
		out = append(out, plans)
	}
	return out
})

var fuzzMultis = sync.OnceValue(func() []*pipeline.Engine {
	var ms []*pipeline.Engine
	for _, plans := range fuzzMultiPlans() {
		ms = append(ms, pipeline.New(plans))
	}
	return ms
})

// checkAgainstSerial projects doc through eng with opts — streamed from a
// bytes.Reader and buffered in memory — and requires per-query agreement
// with each plan's standalone serial run: identical projection bytes
// whenever the serial engine succeeds, and failure exactly when it fails.
// The two inputs must also agree with each other on every query's bytes
// and error. This is the executable form of the pipeline's soundness
// argument (see doc.go); run with -race to also exercise the worker pool's
// synchronization.
func checkAgainstSerial(t *testing.T, eng *pipeline.Engine, doc []byte, opts pipeline.Options, label string) {
	t.Helper()
	plans := eng.Plans()
	streamed, streamErr := runOutputs(eng, func(dsts []io.Writer) error {
		_, err := eng.Project(context.Background(), dsts, bytes.NewReader(doc), opts)
		return err
	})
	buffered, bufErr := runOutputs(eng, func(dsts []io.Writer) error {
		_, err := eng.ProjectBuffered(context.Background(), dsts, doc, opts)
		return err
	})
	if fmt.Sprint(streamErr) != fmt.Sprint(bufErr) {
		t.Fatalf("%s: streamed err = %v, buffered err = %v", label, streamErr, bufErr)
	}
	errs := testutil.PerQueryErrors(t, streamErr, len(plans))
	for i, plan := range plans {
		if !bytes.Equal(streamed[i], buffered[i]) {
			t.Fatalf("%s query %d: streamed %d bytes, buffered %d bytes", label, i, len(streamed[i]), len(buffered[i]))
		}
		want, _, wantErr := core.NewFromPlan(plan).ProjectBytes(context.Background(), doc)
		if (wantErr == nil) != (errs[i] == nil) {
			t.Fatalf("%s query %d: serial err = %v, pipeline err = %v", label, i, wantErr, errs[i])
		}
		if wantErr == nil && !bytes.Equal(want, streamed[i]) {
			t.Fatalf("%s query %d: output differs: serial %d bytes, pipeline %d bytes",
				label, i, len(want), len(streamed[i]))
		}
	}
}

// FuzzProjectParallel feeds arbitrary documents through the serial engine
// and the K=1 parallel pipeline and requires agreement across worker and
// segment-size mixes.
func FuzzProjectParallel(f *testing.F) {
	f.Add([]byte(`<site><regions><africa/><asia/><australia><item><location>x</location><name>n</name><payment>p</payment><description>d</description><shipping/><incategory category="1"/></item></australia></regions></site>`), uint8(4), uint16(16))
	f.Add([]byte(`<r><rec><Abstract>a</Abstract><AbstractText>b</AbstractText></rec></r>`), uint8(2), uint16(24))
	f.Add([]byte(`<r><rec><AbstractText a="q>u<o/te">long text `+strings.Repeat("pad ", 64)+`</AbstractText></rec></r>`), uint8(3), uint16(17))
	f.Add([]byte(`<site>`+strings.Repeat(`<regions>`, 40)+`plain`), uint8(5), uint16(32))
	f.Add([]byte(``), uint8(2), uint16(16))
	f.Add(bytes.Repeat([]byte(`< <site <AbstractTex </r <<>`), 30), uint8(7), uint16(19))

	f.Fuzz(func(t *testing.T, doc []byte, workersRaw uint8, segRaw uint16) {
		workers := 2 + int(workersRaw%7) // 2..8
		segSize := 16 + int(segRaw%1024) // 16..1039
		opts := pipeline.Options{Workers: workers, SegmentSize: segSize}
		for i, eng := range fuzzSingle() {
			checkAgainstSerial(t, eng, doc, opts,
				fmt.Sprintf("plan %d workers %d seg %d", i, workers, segSize))
		}
	})
}

// FuzzMultiProject feeds arbitrary documents through K standalone serial
// engines and one shared multi-query pass (serial scan) and requires
// per-query agreement.
func FuzzMultiProject(f *testing.F) {
	f.Add([]byte(`<site><regions><africa/><asia/><australia><item><location>x</location><name>n</name><payment>p</payment><description>d</description><shipping/><incategory category="1"/></item></australia></regions></site>`), uint16(64))
	f.Add([]byte(`<r><rec><Abstract>a</Abstract><AbstractText>b</AbstractText></rec></r>`), uint16(70))
	f.Add([]byte(`<r><rec><AbstractText a="q>u<o/te">long text `+strings.Repeat("pad ", 64)+`</AbstractText></rec></r>`), uint16(91))
	f.Add([]byte(`<site>`+strings.Repeat(`<regions>`, 40)+`plain`), uint16(80))
	f.Add([]byte(``), uint16(64))
	f.Add(bytes.Repeat([]byte(`< <site <AbstractTex </r <<>`), 30), uint16(77))

	f.Fuzz(func(t *testing.T, doc []byte, chunkRaw uint16) {
		chunk := 64 + int(chunkRaw%2048) // 64..2111
		for si, eng := range fuzzMultis() {
			checkAgainstSerial(t, eng, doc, pipeline.Options{ChunkSize: chunk},
				fmt.Sprintf("set %d chunk %d", si, chunk))
		}
	})
}

// FuzzMultiProjectParallel exercises both axes at once: K > 1 merged
// queries replaying a W > 1 parallel scan, with boundary-straddling
// keywords and prefix-colliding vocabularies. Seeds merge the corpora of
// FuzzProjectParallel and FuzzMultiProject.
func FuzzMultiProjectParallel(f *testing.F) {
	f.Add([]byte(`<site><regions><africa/><asia/><australia><item><location>x</location><name>n</name><payment>p</payment><description>d</description><shipping/><incategory category="1"/></item></australia></regions></site>`), uint8(4), uint16(16), uint16(64))
	f.Add([]byte(`<r><rec><Abstract>a</Abstract><AbstractText>b</AbstractText></rec></r>`), uint8(2), uint16(24), uint16(70))
	f.Add([]byte(`<r><rec><AbstractText a="q>u<o/te">long text `+strings.Repeat("pad ", 64)+`</AbstractText></rec></r>`), uint8(3), uint16(17), uint16(91))
	f.Add([]byte(`<site>`+strings.Repeat(`<regions>`, 40)+`plain`), uint8(5), uint16(32), uint16(80))
	f.Add([]byte(``), uint8(2), uint16(16), uint16(64))
	f.Add(bytes.Repeat([]byte(`< <site <AbstractTex </r <<>`), 30), uint8(7), uint16(19), uint16(77))

	f.Fuzz(func(t *testing.T, doc []byte, workersRaw uint8, segRaw uint16, chunkRaw uint16) {
		workers := 2 + int(workersRaw%7) // 2..8
		segSize := 16 + int(segRaw%1024) // 16..1039
		chunk := 48 + int(chunkRaw%512)  // 48..559
		opts := pipeline.Options{Workers: workers, SegmentSize: segSize, ChunkSize: chunk}
		for si, eng := range fuzzMultis() {
			checkAgainstSerial(t, eng, doc, opts,
				fmt.Sprintf("set %d workers %d seg %d chunk %d", si, workers, segSize, chunk))
		}
	})
}

// replayFixture holds the engines FuzzReplayEquivalence replays a K=18
// XMark sidecar through: the union engine itself, whose vocabulary equals
// the sidecar's (the stored stream is shared, uncopied), and K=1 and K=3
// subsets of it (the stream is remapped to their keyword IDs), plus the
// generated documents the fuzzer mutates.
type replayFixture struct {
	union   *pipeline.Engine
	subsets []*pipeline.Engine
	docs    [][]byte
}

var fuzzReplay = sync.OnceValue(func() replayFixture {
	schema := dtd.MustParse(xmlgen.XMarkDTD())
	plans := make(map[string]*core.Plan)
	var all []*core.Plan
	for _, q := range xmlgen.XMarkQueries() {
		table, err := compile.Compile(schema, paths.MustParseSet(q.Paths), compile.Options{})
		if err != nil {
			panic(err)
		}
		plans[q.ID] = core.NewPlan(table, core.Options{})
		all = append(all, plans[q.ID])
	}
	fx := replayFixture{union: pipeline.New(all)}
	for _, ids := range [][]string{{"XM6"}, {"XM2", "XM7", "XM14"}} {
		var sub []*core.Plan
		for _, id := range ids {
			sub = append(sub, plans[id])
		}
		fx.subsets = append(fx.subsets, pipeline.New(sub))
	}
	for seed := uint64(1); seed <= 4; seed++ {
		fx.docs = append(fx.docs, xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 8 << 10, Seed: seed}))
	}
	return fx
})

// mutateXMark damages a generated document: kind 0 keeps it, 1 truncates it
// at at, 2 flips the bits of flip into the byte at at, and 3 splices the n
// bytes at from in at at.
func mutateXMark(doc []byte, kind uint8, at, from uint16, n, flip uint8) []byte {
	i, j := int(at)%(len(doc)+1), int(from)%len(doc)
	switch kind % 4 {
	case 1:
		return doc[:i]
	case 2:
		out := append([]byte(nil), doc...)
		if i < len(out) {
			out[i] ^= flip
		}
		return out
	case 3:
		span := doc[j:min(j+int(n), len(doc))]
		out := append(append(append([]byte(nil), doc[:i]...), span...), doc[i:]...)
		return out
	}
	return doc
}

// FuzzReplayEquivalence replays the K=18 union sidecar of damaged XMark
// documents through the union engine (no-copy path) and through K=1 and
// K=3 subset engines (remap path), and requires each replay to write the
// same bytes and return the same error as a scan of the same document.
func FuzzReplayEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(0), uint16(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(1), uint8(1), uint16(4000), uint16(0), uint8(0), uint8(0), uint16(300))
	f.Add(uint8(2), uint8(1), uint16(6001), uint16(0), uint8(0), uint8(0), uint16(2000))
	f.Add(uint8(3), uint8(2), uint16(1234), uint16(0), uint8(0), uint8(0x20), uint16(64))
	f.Add(uint8(0), uint8(2), uint16(777), uint16(0), uint8(0), uint8('<'^'a'), uint16(900))
	f.Add(uint8(1), uint8(3), uint16(3000), uint16(5000), uint8(200), uint8(0), uint16(128))
	f.Add(uint8(2), uint8(3), uint16(100), uint16(7000), uint8(33), uint8(0), uint16(4096))

	f.Fuzz(func(t *testing.T, docRaw, kind uint8, at, from uint16, n, flip uint8, chunkRaw uint16) {
		fx := fuzzReplay()
		doc := mutateXMark(fx.docs[int(docRaw)%len(fx.docs)], kind, at, from, n, flip)
		opts := pipeline.Options{ChunkSize: 64 + int(chunkRaw%4096)}
		ix := testutil.RoundTripIndex(t, fx.union, doc)
		if cands := ix.CandidatesFor(fx.union.ScanPlan()); len(cands) > 0 && &cands[0] != &ix.Candidates()[0] {
			t.Fatal("replay through the sidecar's own vocabulary copied the stored stream")
		}
		for _, eng := range append([]*pipeline.Engine{fx.union}, fx.subsets...) {
			if !ix.Covers(eng.ScanPlan()) {
				t.Fatalf("K=%d: the union sidecar does not cover the engine", eng.Len())
			}
			scanOut, scanErr := runOutputs(eng, func(dsts []io.Writer) error {
				_, err := eng.ProjectBuffered(context.Background(), dsts, doc, opts)
				return err
			})
			replayOut, replayErr := runOutputs(eng, func(dsts []io.Writer) error {
				_, err := eng.Replay(context.Background(), dsts, ix.Doc(), ix.CandidatesFor(eng.ScanPlan()), opts)
				return err
			})
			if fmt.Sprint(scanErr) != fmt.Sprint(replayErr) {
				t.Fatalf("K=%d chunk %d: scan err %v, replay err %v", eng.Len(), opts.ChunkSize, scanErr, replayErr)
			}
			for i := range scanOut {
				if !bytes.Equal(scanOut[i], replayOut[i]) {
					t.Fatalf("K=%d chunk %d query %d: scan wrote %d bytes, replay %d", eng.Len(), opts.ChunkSize, i, len(scanOut[i]), len(replayOut[i]))
				}
			}
		}
	})
}

// runOutputs runs one projection into fresh buffers and returns each
// query's bytes with the run's error.
func runOutputs(eng *pipeline.Engine, run func([]io.Writer) error) ([][]byte, error) {
	bufs := make([]bytes.Buffer, eng.Len())
	dsts := make([]io.Writer, eng.Len())
	for i := range dsts {
		dsts[i] = &bufs[i]
	}
	err := run(dsts)
	outs := make([][]byte, len(bufs))
	for i := range bufs {
		outs[i] = bufs[i].Bytes()
	}
	return outs, err
}
