package smp

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
)

// The zero-copy contract (see internal/mmapio): regular-file inputs are
// memory-mapped and scanned in place, everything else streams, and both
// paths produce byte-identical output. These tests pin the observable side
// of that contract at the public API.

func zeroCopyFixture(t *testing.T) *Prefilter {
	t.Helper()
	pf, err := Compile(testDTD, "/*, /site/regions/australia/item/name#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

func TestProjectRegularFileZeroCopy(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no mmap support compiled in")
	}
	pf := zeroCopyFixture(t)
	in := filepath.Join(t.TempDir(), "in.xml")
	if err := os.WriteFile(in, []byte(testDoc), 0o644); err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	if _, err := pf.Project(context.Background(), &want, strings.NewReader(testDoc)); err != nil {
		t.Fatal(err)
	}
	multi, err := NewMultiPrefilter(pf, pf, pf)
	if err != nil {
		t.Fatal(err)
	}

	// Each input projects the file and returns the run's Stats and every
	// output it wrote; each output must equal the streaming projection.
	inputs := []struct {
		name string
		run  func(f *os.File) (Stats, [][]byte, error)
	}{
		{"workers=1", func(f *os.File) (Stats, [][]byte, error) {
			var got bytes.Buffer
			stats, err := pf.Project(context.Background(), &got, f, WithWorkers(1))
			return stats, [][]byte{got.Bytes()}, err
		}},
		{"workers=4", func(f *os.File) (Stats, [][]byte, error) {
			var got bytes.Buffer
			stats, err := pf.Project(context.Background(), &got, f, WithWorkers(4))
			return stats, [][]byte{got.Bytes()}, err
		}},
		{"multi k=3 workers=1", func(f *os.File) (Stats, [][]byte, error) {
			outs := make([]bytes.Buffer, 3)
			var stats Stats
			_, err := multi.MultiProject(context.Background(), []io.Writer{&outs[0], &outs[1], &outs[2]}, f, WithWorkers(1), WithStatsInto(&stats))
			return stats, [][]byte{outs[0].Bytes(), outs[1].Bytes(), outs[2].Bytes()}, err
		}},
	}
	for _, input := range inputs {
		f, err := os.Open(in)
		if err != nil {
			t.Fatal(err)
		}
		stats, got, err := input.run(f)
		if err != nil {
			t.Fatalf("%s: %v", input.name, err)
		}
		if !stats.ZeroCopyInput {
			t.Errorf("%s: regular file input did not take the zero-copy path", input.name)
		}
		for i, out := range got {
			if !bytes.Equal(out, want.Bytes()) {
				t.Errorf("%s: output %d of the mmap run differs from the streaming output", input.name, i)
			}
		}
		// The file must look consumed, exactly as streaming leaves it.
		if off, _ := f.Seek(0, 1); off != int64(len(testDoc)) {
			t.Errorf("%s: file offset %d after projection, want %d", input.name, off, len(testDoc))
		}
		f.Close()
	}
}

func TestProjectFromPipeFallsBack(t *testing.T) {
	pf := zeroCopyFixture(t)

	var want bytes.Buffer
	if _, err := pf.Project(context.Background(), &want, strings.NewReader(testDoc)); err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go func() {
		w.Write([]byte(testDoc))
		w.Close()
	}()
	var got bytes.Buffer
	stats, err := pf.Project(context.Background(), &got, r)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ZeroCopyInput {
		t.Error("pipe input reported zero-copy")
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("pipe output differs from streaming output")
	}
}

// TestProjectFileFromFIFO is the satellite regression: ProjectFile on a
// FIFO must stream (a FIFO is not mappable) and still apply the
// partial-output cleanup contract on failure.
func TestProjectFileFromFIFO(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mkfifo is linux-only in this test")
	}
	pf := zeroCopyFixture(t)
	dir := t.TempDir()

	t.Run("success", func(t *testing.T) {
		fifo := filepath.Join(dir, "in.fifo")
		if err := syscall.Mkfifo(fifo, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		go func() {
			w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
			if err != nil {
				return
			}
			w.Write([]byte(testDoc))
			w.Close()
		}()
		out := filepath.Join(dir, "out.xml")
		stats, err := pf.ProjectFile(context.Background(), fifo, out)
		if err != nil {
			t.Fatalf("ProjectFile(fifo): %v", err)
		}
		if stats.ZeroCopyInput {
			t.Error("FIFO input reported zero-copy")
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "<name>PDA</name>") {
			t.Errorf("FIFO projection output %q misses the australia item name", data)
		}
	})

	t.Run("failure cleans up", func(t *testing.T) {
		fifo := filepath.Join(dir, "bad.fifo")
		if err := syscall.Mkfifo(fifo, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		// Conforming prefix, then a truncated tag: output is written before
		// the failure, and must be removed afterwards.
		bad := testDoc[:len(testDoc)-40] + "<name oops"
		go func() {
			w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
			if err != nil {
				return
			}
			w.Write([]byte(bad))
			w.Close()
		}()
		out := filepath.Join(dir, "bad-out.xml")
		if _, err := pf.ProjectFile(context.Background(), fifo, out); err == nil {
			t.Fatal("ProjectFile succeeded on a truncated document")
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("partial output file left behind (stat err = %v)", err)
		}
	})
}

// TestProjectPartiallyReadFile pins the offset handling: mapping starts at
// the file's current read offset, not at byte zero.
func TestProjectPartiallyReadFile(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no mmap support compiled in")
	}
	pf := zeroCopyFixture(t)

	// Prepend garbage the projection must never see.
	withPrefix := filepath.Join(t.TempDir(), "prefixed.xml")
	if err := os.WriteFile(withPrefix, []byte("JUNKJUNK"+testDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(withPrefix)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(8, 0); err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	if _, err := pf.Project(context.Background(), &want, strings.NewReader(testDoc)); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	stats, err := pf.Project(context.Background(), &got, f)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ZeroCopyInput {
		t.Error("partially read regular file did not take the zero-copy path")
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("projection from offset 8 = %q, want %q", got.Bytes(), want.Bytes())
	}
}
