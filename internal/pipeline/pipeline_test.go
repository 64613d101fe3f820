package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/paths"
)

// TestCut checks the segment-boundary back-off.
func TestCut(t *testing.T) {
	tests := []struct {
		buf    string
		target int
		want   int
	}{
		{"aaaa<bbb<cc", 9, 8},  // backs off to the last '<' at or before target
		{"aaaa<bbbbcc", 9, 4},  // ... further back if needed
		{"<aaaaaaaaaa", 9, 9},  // offset 0 is not a boundary: nominal end
		{"aaaaaaaaaaa", 9, 9},  // no '<' at all: nominal end
		{"aaaa<bbbbbb", 4, 4},  // '<' exactly at the target
		{"ab<de<ghijk", 10, 5}, // target at the last byte... backs to '<'
	}
	for _, tc := range tests {
		if got := cut([]byte(tc.buf), tc.target); got != tc.want {
			t.Errorf("cut(%q, %d) = %d, want %d", tc.buf, tc.target, got, tc.want)
		}
	}
}

const sizingDTD = `<!DOCTYPE r [
	<!ELEMENT r (rec*)>
	<!ELEMENT rec (#PCDATA)>
]>`

func sizingPlan(t *testing.T, chunk int) *core.Plan {
	t.Helper()
	table, err := compile.Compile(dtd.MustParse(sizingDTD), paths.MustParseSet("/*, //rec#"), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewPlan(table, core.Options{ChunkSize: chunk})
}

// TestSizing pins the parallel sizing rules: the default segment size scales
// with the worker count, the lookahead never drops below the longest keyword
// plus its terminator, and MinParallelInput reports segment plus lookahead.
func TestSizing(t *testing.T) {
	e := New([]*core.Plan{sizingPlan(t, 1<<10)})
	minKw := e.scan.MaxKeywordLen() + 1

	seg, overlap := e.sizing(4, Options{})
	if seg != 4<<10 {
		t.Errorf("default segSize = %d, want %d", seg, 4<<10)
	}
	if overlap != 1<<10 {
		t.Errorf("default overlap = %d, want chunk %d", overlap, 1<<10)
	}

	// A chunk override below the longest keyword clamps the lookahead.
	seg, overlap = e.sizing(2, Options{ChunkSize: 2})
	if overlap != minKw {
		t.Errorf("clamped overlap = %d, want %d", overlap, minKw)
	}
	if seg < 16 {
		t.Errorf("segSize = %d, want >= 16", seg)
	}

	// An explicit segment size wins over the worker-scaled default.
	seg, _ = e.sizing(8, Options{SegmentSize: 301})
	if seg != 301 {
		t.Errorf("explicit segSize = %d, want 301", seg)
	}

	seg, overlap = e.sizing(4, Options{})
	if got := e.MinParallelInput(Options{Workers: 4}); got != seg+overlap {
		t.Errorf("MinParallelInput = %d, want segSize+overlap = %d", got, seg+overlap)
	}
	if small, big := e.MinParallelInput(Options{Workers: 2, ChunkSize: 256}), e.MinParallelInput(Options{Workers: 2}); small >= big {
		t.Errorf("smaller chunk should lower the threshold: %d >= %d", small, big)
	}
}

// TestNewPanicsOnEmpty pins the constructor contract.
func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil)
}

// TestProjectBufferedNilDocument checks that a nil in-memory document is an
// empty document, exactly as an empty stream is, and never read as one.
func TestProjectBufferedNilDocument(t *testing.T) {
	e := New([]*core.Plan{sizingPlan(t, 1<<10)})
	_, wantErr := e.Project(context.Background(), nil, strings.NewReader(""), Options{})
	if wantErr == nil {
		t.Fatal("empty stream projected without an error")
	}
	res, err := e.ProjectBuffered(context.Background(), nil, nil, Options{})
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Errorf("nil document: err %v, want %v", err, wantErr)
	}
	if res.Scan.BytesRead != 0 {
		t.Errorf("nil document: BytesRead = %d, want 0", res.Scan.BytesRead)
	}
}
