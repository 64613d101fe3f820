package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"smp"
	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/paths"
	"smp/internal/projection"
)

var datasets = []smp.Dataset{smp.XMark, smp.Medline}

// doc is one generated input document.
type doc struct {
	id   int
	ds   smp.Dataset
	data []byte
	path string // on-disk copy, when the workload reads files
}

// spec is one projection-path set: one of the paper queries.
type spec struct {
	id    string
	ds    smp.Dataset
	paths string
}

func paperSpecs() []spec {
	var out []spec
	for _, ds := range datasets {
		qs, _ := smp.BenchmarkQueries(ds)
		for _, q := range qs {
			out = append(out, spec{id: q.ID, ds: ds, paths: q.Paths})
		}
	}
	return out
}

func paperQueryIDs() []string {
	var ids []string
	for _, s := range paperSpecs() {
		ids = append(ids, s.id)
	}
	return ids
}

func specsOf(specs []spec, ds smp.Dataset) []spec {
	var out []spec
	for _, s := range specs {
		if s.ds == ds {
			out = append(out, s)
		}
	}
	return out
}

func dtdOf(ds smp.Dataset) string {
	src, err := smp.DatasetDTD(ds)
	if err != nil {
		panic(err) // datasets lists only bundled datasets
	}
	return src
}

// mix derives a stream of independent seeds from the workload seed
// (splitmix64).
func mix(seed uint64, i int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// logSizes returns n sizes spread log-uniformly over [lo, hi] at fixed
// quantiles, shuffled by the seed: the size distribution is the same for
// every seed, the order and the contents are not.
func logSizes(n int, lo, hi int64, seed uint64) []int64 {
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = int64(float64(lo) * math.Pow(float64(hi)/float64(lo), (float64(i)+0.5)/float64(n)))
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

func genDoc(id int, ds smp.Dataset, size int64, seed uint64) (*doc, error) {
	data, err := smp.GenerateBytes(ds, size, seed)
	if err != nil {
		return nil, err
	}
	return &doc{id: id, ds: ds, data: data}, nil
}

// writeDocs stores each document under dir.
func writeDocs(dir string, docs []*doc) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range docs {
		d.path = filepath.Join(dir, fmt.Sprintf("doc-%04d-%s.xml", d.id, d.ds))
		if err := os.WriteFile(d.path, d.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// paperEngine compiles a spec for the paper's serial window engine
// (internal/core), the reference every output is checked against.
func paperEngine(s spec) (*core.Prefilter, error) {
	table, err := compileTable(s)
	if err != nil {
		return nil, err
	}
	return core.New(table, core.Options{}), nil
}

// compileTable runs the static analysis (internal/dtd, paths, compile) of
// one spec.
func compileTable(s spec) (*compile.Table, error) {
	schema, err := dtd.Parse(dtdOf(s.ds))
	if err != nil {
		return nil, err
	}
	set, err := paths.ParseSet(s.paths)
	if err != nil {
		return nil, err
	}
	return compile.Compile(schema, set, compile.Options{})
}

type refKey struct {
	doc  int
	spec string
}

// refs holds the reference digest of every (document, spec) pair a
// workload projects.
type refs struct {
	mu sync.RWMutex
	m  map[refKey]digest
}

// references computes the reference digests of every pair of a document
// and a spec of its dataset with the paper's serial window engine, on
// nproc goroutines.
func (b *bench) references(docs []*doc, specs []spec) (*refs, error) {
	engines := map[string]*core.Prefilter{}
	for _, s := range specs {
		e, err := paperEngine(s)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", s.id, err)
		}
		engines[s.id] = e
	}
	type job struct {
		d *doc
		s spec
	}
	var jobs []job
	for _, d := range docs {
		for _, s := range specs {
			if s.ds == d.ds {
				jobs = append(jobs, job{d, s})
			}
		}
	}
	r := &refs{m: make(map[refKey]digest, len(jobs))}
	err := parallel(b.nproc, len(jobs), func(i int) error {
		j := jobs[i]
		var out bytes.Buffer
		if _, err := engines[j.s.id].ProjectWith(context.Background(), &out, bytes.NewReader(j.d.data), core.RunOptions{}); err != nil {
			return fmt.Errorf("reference %s on doc %d: %w", j.s.id, j.d.id, err)
		}
		r.put(refKey{j.d.id, j.s.id}, digestOf(out.Bytes()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if b.cfg.corruptRef {
		keys := make([]refKey, 0, len(r.m))
		for k := range r.m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].doc != keys[j].doc {
				return keys[i].doc < keys[j].doc
			}
			return keys[i].spec < keys[j].spec
		})
		d := r.m[keys[0]]
		d[0] ^= 1
		r.m[keys[0]] = d
	}
	return r, nil
}

func (r *refs) put(k refKey, d digest) {
	r.mu.Lock()
	r.m[k] = d
	r.mu.Unlock()
}

// check compares an output with its reference digest.
func (r *refs) check(docID int, specID string, out []byte) error {
	r.mu.RLock()
	want, ok := r.m[refKey{docID, specID}]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("no reference for doc %d spec %s", docID, specID)
	}
	if digestOf(out) != want {
		return fmt.Errorf("%w: doc %d, spec %s, %d bytes", errMismatch, docID, specID, len(out))
	}
	return nil
}

// oracleCheck cross-checks the reference engine against the tokenizing
// oracle (internal/projection) for every spec, on one document per dataset
// generated from the seed. The oracle runs at a few MiB/s, so it checks the
// engine, not each workload document; the documents are checked by digest.
func (b *bench) oracleCheck(specs []spec) error {
	size := int64(192 << 10 * b.cfg.scale)
	docs := map[smp.Dataset][]byte{}
	for i, ds := range datasets {
		d, err := smp.GenerateBytes(ds, size, mix(b.cfg.seed, 1000+i))
		if err != nil {
			return err
		}
		docs[ds] = d
	}
	return parallel(b.nproc, len(specs), func(i int) error {
		s := specs[i]
		e, err := paperEngine(s)
		if err != nil {
			return err
		}
		var out bytes.Buffer
		if _, err := e.ProjectWith(context.Background(), &out, bytes.NewReader(docs[s.ds]), core.RunOptions{}); err != nil {
			return err
		}
		set, err := paths.ParseSet(s.paths)
		if err != nil {
			return err
		}
		want, _, err := projection.New(set, projection.Options{}).ProjectBytes(docs[s.ds])
		if err != nil {
			return fmt.Errorf("oracle %s: %w", s.id, err)
		}
		eq, err := projection.Equal(want, out.Bytes())
		if err != nil {
			return fmt.Errorf("oracle %s: %w", s.id, err)
		}
		if !eq {
			return fmt.Errorf("%w: serial engine and oracle disagree on %s", errMismatch, s.id)
		}
		return nil
	})
}

// parallel runs fn(0..n-1) on at most workers goroutines and returns the
// first error.
func parallel(workers, n int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n || first != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
