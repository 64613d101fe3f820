package smp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"smp/internal/core"
)

// TestMultiProjectWorkersBoundMemory is the regression test for W > 1 runs
// that scanned a whole buffered document, holding every segment's candidate
// list, however early their queries failed. The document is 32 MiB of
// keyword-dense <item></item> behind a root tag whose quoted attribute never
// closes, so every one of the 18 XMark queries fails with a tag-too-long
// error about 1 MiB in. A W=2 run must then stop scanning within the pool's
// lookahead of where the W=1 run stopped, and allocate accordingly.
func TestMultiProjectWorkersBoundMemory(t *testing.T) {
	m, _ := multiFixture(t, XMark, 18, 1)
	doc := append([]byte(`<site a="`), bytes.Repeat([]byte("<item></item>"), (32<<20)/13)...)
	path := filepath.Join(t.TempDir(), "dense.xml")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	type run struct {
		stats Stats
		alloc uint64
		err   error
	}
	project := func(src io.Reader, workers int) run {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var st Stats
		_, err := m.MultiProject(context.Background(), nil, src, WithWorkers(workers), WithStatsInto(&st))
		runtime.ReadMemStats(&after)
		return run{st, after.TotalAlloc - before.TotalAlloc, err}
	}
	serial := project(bytes.NewReader(doc), 1)
	if bound := heldBound(m, 1, true); serial.stats.MaxBufferBytes > bound {
		t.Errorf("W=1 held %d bytes of segments, want <= %d", serial.stats.MaxBufferBytes, bound)
	}
	var tooLong *MultiError
	if !errors.As(serial.err, &tooLong) || len(tooLong.Errs) != 18 {
		t.Fatalf("W=1: err = %v, want all 18 queries failing", serial.err)
	}
	for i, err := range tooLong.Errs {
		if err == nil {
			t.Fatalf("W=1: query %d did not fail", i)
		}
	}
	if serial.stats.BytesRead > 2<<20 {
		t.Fatalf("W=1 read %d bytes: the queries did not fail early", serial.stats.BytesRead)
	}

	// The pool scans at most 4 segments per worker past the slowest query,
	// plus the one segment being cut when the last query fails.
	seg := int64(m.MinParallelInput(2))
	readBound := serial.stats.BytesRead + (4*2+1)*seg
	// Each input byte here costs about 10 bytes of candidate lists (two
	// 32-byte candidates per 13 bytes, doubled by slice growth); 16 bytes
	// per byte of the bound leaves room for the run's fixed allocations.
	allocBound := 16 * uint64(readBound)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, in := range []struct {
		name string
		src  io.Reader
	}{{"file", f}, {"stream", bytes.NewReader(doc)}} {
		got := project(in.src, 2)
		t.Logf("%s W=2: read %d bytes, %d shifts, allocated %d KiB (W=1: %d bytes, %d shifts, %d KiB)",
			in.name, got.stats.BytesRead, got.stats.Shifts, got.alloc>>10, serial.stats.BytesRead, serial.stats.Shifts, serial.alloc>>10)
		if fmt.Sprint(got.err) != fmt.Sprint(serial.err) {
			t.Errorf("%s W=2: err %v, W=1 err %v", in.name, got.err, serial.err)
		}
		if got.stats.BytesRead > readBound {
			t.Errorf("%s W=2 read %d bytes, want <= %d (W=1 stopped at %d)", in.name, got.stats.BytesRead, readBound, serial.stats.BytesRead)
		}
		// The scan counters grow with the bytes scanned: W=2 may scan the
		// lookahead beyond W=1's stop, not the rest of the document.
		if max := serial.stats.Shifts * readBound / serial.stats.BytesRead; got.stats.Shifts > max {
			t.Errorf("%s W=2 made %d shifts, want <= %d (W=1 made %d)", in.name, got.stats.Shifts, max, serial.stats.Shifts)
		}
		if got.alloc > allocBound {
			t.Errorf("%s W=2 allocated %d MiB, want <= %d MiB (W=1 allocated %d MiB)", in.name, got.alloc>>20, allocBound>>20, serial.alloc>>20)
		}
		if bound := heldBound(m, 2, true); got.stats.MaxBufferBytes > bound {
			t.Errorf("%s W=2 held %d bytes of segments, want <= %d", in.name, got.stats.MaxBufferBytes, bound)
		}
	}
	// A sidecar of this document would hold every one of its 5M candidates
	// (160 MiB) for a run that fails 1 MiB in; the shapes below replay one.
	boundMemoryOnShapes(t, m)
}

// heldBound is the most segment bytes a run on workers workers may hold:
// the pool scans at most 4 segments per worker past its slowest query, plus
// the segment being cut, the one being replayed and the one a chase started
// in. A query chasing an unterminated tag also holds the segments the tag
// spans until it is too long, each with its lookahead, which is at most as
// long as the segment.
func heldBound(m *MultiPrefilter, workers int, chase bool) int64 {
	bound := (4*int64(workers) + 3) * int64(m.MinParallelInput(workers))
	if chase {
		bound += 2 * core.MaxTagLength
	}
	return bound
}

// boundMemoryOnShapes runs the 18 XMark queries over adversarial document
// shapes — a 16 MiB text node without a '<', 2 MiB of items each nested as
// deep as the (non-recursive) XMark DTD allows, and a 16 MiB tag that never
// ends — on one worker, on two, and replayed from a sidecar on one and on
// two. Every run must hold no more segment bytes than the lookahead bound,
// and write the same bytes and errors as the W=1 scan.
func boundMemoryOnShapes(t *testing.T, m *MultiPrefilter) {
	const (
		open = `<site><regions><africa>`
		rest = `</africa><asia></asia><australia></australia><europe></europe><namerica></namerica><samerica></samerica></regions>` +
			`<categories><category id="c0"><name>n</name><description><text>t</text></description></category></categories>` +
			`<catgraph></catgraph><people></people><open_auctions></open_auctions><closed_auctions></closed_auctions></site>`
		deep = `<item id="i0"><location>l</location><quantity>1</quantity><name>n</name><payment>p</payment>` +
			`<description><text>t</text></description><shipping>s</shipping><incategory category="c0"/>` +
			`<mailbox><mail><from>f</from><to>t</to><date>d</date><text>x</text></mail></mailbox></item>`
		item = `<item id="i0"><location>`
	)
	for _, shape := range []struct {
		name  string
		doc   string
		chase bool
	}{
		{"text node", open + item + strings.Repeat("x", 16<<20) + "</location>" + deep[len(item)+len("l</location>"):] + rest, false},
		{"deepest nesting", open + strings.Repeat(deep, (2<<20)/len(deep)) + rest, false},
		{"unterminated tag", open + `<item id="i0"` + strings.Repeat(" a", 8<<20), true},
	} {
		doc := []byte(shape.doc)
		ix := m.BuildIndex(doc)
		type run struct {
			outs [][]byte
			err  error
			st   Stats
		}
		project := func(opts ...ProjectOption) run {
			bufs := make([]bytes.Buffer, m.Len())
			dsts := make([]io.Writer, m.Len())
			for i := range dsts {
				dsts[i] = &bufs[i]
			}
			var r run
			_, r.err = m.MultiProject(context.Background(), dsts, bytes.NewReader(doc), append(opts, WithStatsInto(&r.st))...)
			for i := range bufs {
				r.outs = append(r.outs, bufs[i].Bytes())
			}
			return r
		}
		serial := project(WithWorkers(1))
		for _, in := range []struct {
			name    string
			workers int
			run     run
		}{
			{"W=1", 1, serial},
			{"W=2", 2, project(WithWorkers(2))},
			{"sidecar W=1", 1, project(WithIndex(ix))},
			{"sidecar W=2", 2, project(WithIndex(ix), WithWorkers(2))},
		} {
			if bound := heldBound(m, in.workers, shape.chase); in.run.st.MaxBufferBytes > bound {
				t.Errorf("%s %s: held %d bytes of segments, want <= %d", shape.name, in.name, in.run.st.MaxBufferBytes, bound)
			}
			if fmt.Sprint(in.run.err) != fmt.Sprint(serial.err) {
				t.Errorf("%s %s: err %v, W=1 err %v", shape.name, in.name, in.run.err, serial.err)
			}
			for q := range serial.outs {
				if !bytes.Equal(in.run.outs[q], serial.outs[q]) {
					t.Errorf("%s %s query %d: wrote %d bytes, W=1 %d", shape.name, in.name, q, len(in.run.outs[q]), len(serial.outs[q]))
				}
			}
		}
		t.Logf("%s: %d bytes, W=1 held %d KiB, err %v", shape.name, len(doc), serial.st.MaxBufferBytes>>10, serial.err)
	}
}

// cancelWriter buffers one query's output and cancels the run once the
// queries together have written limit bytes.
type cancelWriter struct {
	buf     bytes.Buffer
	written *atomic.Int64
	limit   int64
	cancel  context.CancelFunc
}

func (w *cancelWriter) Write(p []byte) (int, error) {
	if w.written.Add(int64(len(p))) >= w.limit {
		w.cancel()
	}
	return w.buf.Write(p)
}

// TestMultiProjectCancelInsideWrite cancels a W=4, K=6 run from inside a
// destination's Write, mid-document, over a buffered and a streamed input:
// every query that had not finished fails with context.Canceled, and no
// goroutine of the run outlives the call.
func TestMultiProjectCancelInsideWrite(t *testing.T) {
	m, doc := multiFixture(t, XMark, 6, 1<<20)
	want := make([][]byte, m.Len())
	total := 0
	for i, pf := range m.pfs {
		want[i], _ = projectBytes(t, pf, doc)
		total += len(want[i])
	}
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, input := range []string{"file", "stream"} {
		var src io.Reader = bytes.NewReader(doc)
		if input == "file" {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			src = f
		}
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var written atomic.Int64
		outs := make([]*cancelWriter, m.Len())
		dsts := make([]io.Writer, m.Len())
		for i := range outs {
			outs[i] = &cancelWriter{written: &written, limit: int64(total / 4), cancel: cancel}
			dsts[i] = outs[i]
		}
		_, err := m.MultiProject(ctx, dsts, src, WithWorkers(4), WithChunkSize(4<<10))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", input, err)
		}
		var merr *MultiError
		if !errors.As(err, &merr) {
			t.Fatalf("%s: err is %T, want *MultiError", input, err)
		}
		for i, qerr := range merr.Errs {
			switch {
			case qerr == nil && !bytes.Equal(outs[i].buf.Bytes(), want[i]):
				t.Errorf("%s query %d: finished without error but wrote %d of %d bytes", input, i, outs[i].buf.Len(), len(want[i]))
			case qerr != nil && !errors.Is(qerr, context.Canceled):
				t.Errorf("%s query %d: err = %v, want context.Canceled", input, i, qerr)
			}
		}
		if got := written.Load(); got >= int64(total) {
			t.Errorf("%s: the run wrote all %d bytes: the cancellation came too late to test anything", input, got)
		}
		waitGoroutines(t, before)
	}
}

// exclusiveWriter fails the test if two goroutines are ever inside Write at
// once.
type exclusiveWriter struct {
	t      *testing.T
	inside atomic.Int32
	buf    bytes.Buffer
}

func (w *exclusiveWriter) Write(p []byte) (int, error) {
	if w.inside.Add(1) != 1 {
		w.t.Error("two queries sharing a writer wrote it concurrently")
	}
	defer w.inside.Add(-1)
	runtime.Gosched()
	return w.buf.Write(p)
}

// TestMultiProjectSharedWriter pins the destination contract of W > 1 runs:
// queries with distinct destinations are written from different goroutines,
// but queries sharing one writer are replayed one at a time. Queries 0 and 1
// share a *bytes.Buffer (meaningful under -race), queries 2 and 3 a writer
// that detects concurrent calls; the rest write to their own buffers.
func TestMultiProjectSharedWriter(t *testing.T) {
	m, doc := multiFixture(t, XMark, 8, 512<<10)
	want := make([][]byte, m.Len())
	for i, pf := range m.pfs {
		want[i], _ = projectBytes(t, pf, doc)
	}
	var shared bytes.Buffer
	exclusive := &exclusiveWriter{t: t}
	bufs := make([]bytes.Buffer, m.Len())
	dsts := make([]io.Writer, m.Len())
	for i := range dsts {
		dsts[i] = &bufs[i]
	}
	dsts[0], dsts[1] = &shared, &shared
	dsts[2], dsts[3] = exclusive, exclusive
	if _, err := m.MultiProject(context.Background(), dsts, bytes.NewReader(doc), WithWorkers(4), WithChunkSize(4<<10)); err != nil {
		t.Fatal(err)
	}
	if got, wantLen := shared.Len(), len(want[0])+len(want[1]); got != wantLen {
		t.Errorf("shared buffer holds %d bytes, want %d", got, wantLen)
	}
	if got, wantLen := exclusive.buf.Len(), len(want[2])+len(want[3]); got != wantLen {
		t.Errorf("shared writer holds %d bytes, want %d", got, wantLen)
	}
	for i := 4; i < m.Len(); i++ {
		if !bytes.Equal(bufs[i].Bytes(), want[i]) {
			t.Errorf("query %d: wrote %d bytes, standalone %d", i, bufs[i].Len(), len(want[i]))
		}
	}
}

// panicWriter panics on its first write.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("destination failed") }

// TestMultiProjectWriterPanicReachesCaller checks that a destination whose
// Write panics panics in the caller, whichever worker was writing it, and
// that the run's goroutines are gone: on one worker and on four, scanning
// and replaying a sidecar.
func TestMultiProjectWriterPanicReachesCaller(t *testing.T) {
	m, doc := multiFixture(t, XMark, 6, 512<<10)
	dsts := make([]io.Writer, m.Len())
	for i := range dsts {
		dsts[i] = io.Discard
	}
	dsts[3] = panicWriter{}
	ix := m.BuildIndex(doc)
	for _, workers := range []int{1, 4} {
		for input, opts := range map[string][]ProjectOption{"scan": nil, "sidecar": {WithIndex(ix)}} {
			before := runtime.NumGoroutine()
			got := func() (r any) {
				defer func() { r = recover() }()
				m.MultiProject(context.Background(), dsts, bytes.NewReader(doc), append(opts, WithWorkers(workers), WithChunkSize(4<<10))...)
				return nil
			}()
			if got != "destination failed" {
				t.Errorf("%s W=%d: recovered %v, want the destination's panic", input, workers, got)
			}
			waitGoroutines(t, before)
		}
	}
}
