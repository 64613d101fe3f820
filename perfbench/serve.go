package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"smp"
)

// serveProbeRate is the open-loop arrival rate of the serve probe.
const serveProbeRate = 245.0 // requests per second

type opKind int

const (
	opDocuments opKind = iota
	opProjectRef
	opProjectBody
	opMulti
)

var opNames = [...]string{"documents", "project_ref", "project_body", "multiproject"}

// reqOp is one request of the traffic mix, drawn before the phase starts.
type reqOp struct {
	kind   opKind
	rank   int   // Zipf rank of the document
	specs  []int // indexes into the dataset's spec list
	dsPick int   // which dataset a body request uses
}

// serveRig is one smpserve subprocess plus the client state that drives
// it: the document pool with its digests.
type serveRig struct {
	b      *bench
	dir    string
	docs   []*doc
	etags  []string
	specs  map[smp.Dataset][]spec
	ref    *refs
	client *http.Client

	docCache  int64
	planCache int

	cmd  *exec.Cmd
	base string

	nextUp atomic.Int64 // the pool index the next upload request sends
	byDS   map[smp.Dataset][]int
}

func newServeRig(b *bench, dir string, docs []*doc, specs []spec, ref *refs, docCache int64, planCache int) *serveRig {
	r := &serveRig{
		b: b, dir: dir, docs: docs, ref: ref,
		specs:     map[smp.Dataset][]spec{},
		docCache:  docCache,
		planCache: planCache,
		byDS:      map[smp.Dataset][]int{},
	}
	for _, s := range specs {
		r.specs[s.ds] = append(r.specs[s.ds], s)
	}
	for i, d := range docs {
		h := digestOf(d.data)
		r.etags = append(r.etags, "sha256:"+hex.EncodeToString(h[:]))
		r.byDS[d.ds] = append(r.byDS[d.ds], i)
	}
	tr := &http.Transport{
		MaxConnsPerHost:     b.nproc,
		MaxIdleConnsPerHost: b.nproc,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	r.client = &http.Client{Transport: tr, Timeout: 60 * time.Second}
	return r
}

// start launches the server, waits for /healthz and uploads the pool in
// order; the later uploads evict the earlier ones when the document cache
// is smaller than the pool.
func (r *serveRig) start() error {
	if r.b.cfg.server == "" {
		return errors.New("--server is required for the serve probe of traced runs")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()
	cacheDir := filepath.Join(r.dir, "spool")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	logf, err := os.Create(filepath.Join(r.dir, "server.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.Command(r.b.cfg.server,
		"-addr", addr,
		"-cache", strconv.Itoa(r.planCache),
		"-doccache", strconv.FormatInt(r.docCache, 10),
		"-doccachedir", cacheDir,
		"-drain", "2s")
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	r.cmd = cmd
	r.base = "http://" + addr
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := r.client.Get(r.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			r.stop()
			return fmt.Errorf("smpserve did not answer /healthz: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := range r.docs {
		if _, err := r.upload(context.Background(), i, -1, 0); err != nil {
			r.stop()
			return err
		}
	}
	return nil
}

// stop ends the server and waits for it.
func (r *serveRig) stop() {
	if r.cmd == nil {
		return
	}
	r.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { r.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		r.cmd.Process.Kill()
		<-done
	}
	r.cmd = nil
	r.client.CloseIdleConnections()
}

// upload POSTs pool document i to /documents and checks the returned ETag.
func (r *serveRig) upload(ctx context.Context, i, parent int, tid int) (int, error) {
	var status int
	var err error
	r.b.call("smpserve", "POST /documents", parent, -1, tid, func(int) {
		var req *http.Request
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/documents", bytes.NewReader(r.docs[i].data))
		if err != nil {
			return
		}
		var resp *http.Response
		resp, err = r.client.Do(req)
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
		if status == http.StatusOK || status == http.StatusCreated {
			if got := strings.Trim(resp.Header.Get("ETag"), `"`); got != r.etags[i] {
				err = fmt.Errorf("%w: /documents answered ETag %q for doc %d, want %q", errMismatch, got, i, r.etags[i])
			}
		}
	})
	if err == nil && status != http.StatusOK && status != http.StatusCreated {
		return status, fmt.Errorf("POST /documents: status %d", status)
	}
	return status, err
}

// drawOps draws the requests of one phase: Poisson arrival offsets at rate
// and the traffic mix (60% GET /project by reference, 15% POST /project,
// 10% POST /multiproject with K=4, 15% uploads).
func (r *serveRig) drawOps(rate float64, dur time.Duration, seed uint64) ([]time.Duration, []reqOp) {
	rng := rand.New(rand.NewSource(int64(seed)))
	docZipf := rand.NewZipf(rng, 1.2, 1, uint64(len(r.docs)-1))
	// Spec ranks are drawn over 64 and folded into the chosen dataset's
	// list at run time.
	specZipf := rand.NewZipf(rng, 1.1, 1, 63)
	var due []time.Duration
	var ops []reqOp
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			break
		}
		op := reqOp{rank: int(docZipf.Uint64()), dsPick: rng.Intn(2)}
		switch x := rng.Float64(); {
		case x < 0.60:
			op.kind = opProjectRef
		case x < 0.75:
			op.kind = opProjectBody
		case x < 0.85:
			op.kind = opMulti
		default:
			op.kind = opDocuments
		}
		n := 1
		if op.kind == opMulti {
			n = 4
		}
		for len(op.specs) < n {
			s := int(specZipf.Uint64())
			dup := false
			for _, x := range op.specs {
				dup = dup || x == s
			}
			if !dup {
				op.specs = append(op.specs, s)
			}
		}
		due = append(due, time.Duration(t*float64(time.Second)))
		ops = append(ops, op)
	}
	return due, ops
}

// phaseResult collects one phase of open-loop traffic.
type phaseResult struct {
	lat       []time.Duration // from due time to the end of the response
	byKind    [len(opNames)][]time.Duration
	lag       []time.Duration // how late the generator released each request
	attempted int64
	failed    int64
}

// phase offers open-loop Poisson traffic at rate for dur over at most nproc
// keep-alive connections.
func (r *serveRig) phase(rate float64, dur time.Duration, seed uint64) (*phaseResult, error) {
	due, ops := r.drawOps(rate, dur, seed)
	res := &phaseResult{}
	type item struct {
		i   int
		due time.Time
	}
	// Sized to the number of sends: the generator never blocks, so a stalled
	// server shows as due-time latency, not as a late generator.
	queue := make(chan item, len(ops))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < r.b.nproc; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for it := range queue {
				if ctx.Err() != nil {
					continue
				}
				op := ops[it.i]
				status, err := r.execute(ctx, op, it.due, int64(it.i), tid)
				end := time.Now()
				mu.Lock()
				res.attempted++
				switch {
				case errors.Is(err, errMismatch):
					if firstErr == nil {
						firstErr = err
					}
					cancel()
				case err != nil || status >= 300:
					res.failed++
					if res.failed <= 3 {
						fmt.Fprintf(os.Stderr, "perfbench: %s failed: status %d: %v\n", opNames[op.kind], status, err)
					}
				default:
					d := end.Sub(it.due)
					res.lat = append(res.lat, d)
					res.byKind[op.kind] = append(res.byKind[op.kind], d)
				}
				mu.Unlock()
			}
		}(w + 1)
	}
	start := time.Now()
	for i := range ops {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		res.lag = append(res.lag, time.Since(at))
		queue <- item{i, at}
	}
	close(queue)
	wg.Wait()
	return res, firstErr
}

// execute runs one request and checks its output; in traced phases its
// span starts at the request's due time. It returns the HTTP status.
func (r *serveRig) execute(ctx context.Context, op reqOp, due time.Time, opID int64, tid int) (int, error) {
	id := -1
	if r.b.recording {
		id = r.b.open("smpserve", "request:"+opNames[op.kind], -1, opID, tid, due)
	}
	status, err := r.executeOp(ctx, op, id, tid)
	if id >= 0 {
		r.b.close(id, time.Now())
	}
	return status, err
}

func (r *serveRig) pickBody(op reqOp) int {
	ds := datasets[op.dsPick]
	idx := r.byDS[ds]
	return idx[op.rank%len(idx)]
}

func (r *serveRig) specFor(ds smp.Dataset, rank int) spec {
	list := r.specs[ds]
	return list[rank%len(list)]
}

// maxReuploads bounds how often a request by reference re-uploads its
// document after the server evicted it.
const maxReuploads = 3

func (r *serveRig) executeOp(ctx context.Context, op reqOp, parent, tid int) (int, error) {
	r.b.inject("smpserve")
	switch op.kind {
	case opDocuments:
		i := int(r.nextUp.Add(1)-1) % len(r.docs)
		return r.upload(ctx, i, parent, tid)
	case opProjectRef:
		i := op.rank % len(r.docs)
		d := r.docs[i]
		s := r.specFor(d.ds, op.specs[0])
		u := r.base + "/project?" + url.Values{"dataset": {string(d.ds)}, "paths": {s.paths}, "doc": {r.etags[i]}}.Encode()
		for attempt := 0; ; attempt++ {
			status, body, err := r.get(ctx, u)
			if err != nil {
				return status, err
			}
			if status == http.StatusNotFound && attempt < maxReuploads {
				// Evicted: upload it again and retry inside the same operation.
				if st, err := r.upload(ctx, i, parent, tid); err != nil {
					return st, err
				}
				continue
			}
			if status != http.StatusOK {
				return status, nil
			}
			return status, r.ref.check(d.id, s.id, body)
		}
	case opProjectBody:
		i := r.pickBody(op)
		d := r.docs[i]
		s := r.specFor(d.ds, op.specs[0])
		u := r.base + "/project?" + url.Values{"dataset": {string(d.ds)}, "paths": {s.paths}}.Encode()
		status, body, err := r.post(ctx, u, d.data)
		if err != nil || status != http.StatusOK {
			return status, err
		}
		return status, r.ref.check(d.id, s.id, body)
	default:
		i := r.pickBody(op)
		d := r.docs[i]
		q := url.Values{"dataset": {string(d.ds)}}
		var specs []spec
		for _, k := range op.specs {
			s := r.specFor(d.ds, k)
			specs = append(specs, s)
			q.Add("paths", s.paths)
		}
		return r.multi(ctx, r.base+"/multiproject?"+q.Encode(), d, specs)
	}
}

func (r *serveRig) get(ctx context.Context, u string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, nil, err
	}
	return r.do(req)
}

func (r *serveRig) post(ctx context.Context, u string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	return r.do(req)
}

func (r *serveRig) do(req *http.Request) (int, []byte, error) {
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// multi sends one /multiproject request and checks every part.
func (r *serveRig) multi(ctx context.Context, u string, d *doc, specs []spec) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(d.data))
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	_, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil {
		return resp.StatusCode, err
	}
	mr := multipart.NewReader(resp.Body, params["boundary"])
	seen := 0
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return resp.StatusCode, err
		}
		q, err := strconv.Atoi(part.Header.Get("X-Smp-Query"))
		if err != nil || q < 0 || q >= len(specs) {
			return resp.StatusCode, fmt.Errorf("%w: multipart part without a valid X-SMP-Query", errMismatch)
		}
		if e := part.Header.Get("X-Smp-Error"); e != "" {
			return resp.StatusCode, fmt.Errorf("multiproject query %d: %s", q, e)
		}
		body, err := io.ReadAll(part)
		if err != nil {
			return resp.StatusCode, err
		}
		if err := r.ref.check(d.id, specs[q].id, body); err != nil {
			return resp.StatusCode, err
		}
		seen++
	}
	if seen != len(specs) {
		return resp.StatusCode, fmt.Errorf("%w: multiproject answered %d parts, want %d", errMismatch, seen, len(specs))
	}
	return resp.StatusCode, nil
}

// scrape reads the server's /metrics exposition into a map keyed by series.
func (r *serveRig) scrape() (map[string]float64, error) {
	resp, err := r.client.Get(r.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is the change of the server's /metrics series between two scrapes.
type delta struct{ before, after map[string]float64 }

func (d delta) of(series string) float64 { return d.after[series] - d.before[series] }

// share returns n/base, and 0 for an empty base.
func share(n, base float64) float64 {
	if base == 0 {
		return 0
	}
	return n / base
}

// reportServeLayer sets the serve.* per-layer metrics from one phase and
// the server's counter deltas over it.
func (b *bench) reportServeLayer(p *phaseResult, dm delta) {
	b.set("serve.high_ms_p50", ms(percentile(p.lat, 0.5)), "ms")
	b.set("serve.high_ms_p99", ms(percentile(p.lat, 0.99)), "ms")
	for k, name := range opNames {
		b.set("serve."+name+".ms_p50", ms(percentile(p.byKind[k], 0.5)), "ms")
		b.set("serve."+name+".ms_p99", ms(percentile(p.byKind[k], 0.99)), "ms")
	}
	b.set("serve.gen_lag_ms_p99", ms(percentile(p.lag, 0.99)), "ms")
	projects := dm.of(`smpserve_http_requests_total{endpoint="/project"}`)
	b.set("serve.coalesce_batch_mean", share(dm.of("smpserve_coalesce_batch_size_sum"), dm.of("smpserve_coalesce_batch_size_count")), "count")
	b.set("serve.coalesced_ratio", share(dm.of("smpserve_coalesced_requests_total"), projects), "ratio")
	ph, pm := dm.of("smpserve_plan_cache_hits_total"), dm.of("smpserve_plan_cache_misses_total")
	b.set("serve.plan_cache_hit_ratio", share(ph, ph+pm), "ratio")
	dh, dmiss := dm.of("smpserve_doc_cache_hits_total"), dm.of("smpserve_doc_cache_misses_total")
	b.set("serve.doc_cache_hit_ratio", share(dh, dh+dmiss), "ratio")
	b.set("serve.doc_cache_evictions", dm.of("smpserve_doc_cache_evictions_total"), "count")
	ih, is := dm.of("smpserve_index_hits_total"), dm.of("smpserve_index_skips_total")
	b.set("serve.index_hit_ratio", share(ih, ih+is), "ratio")
	b.set("serve.zero_copy_ratio", share(dm.of("smpserve_zero_copy_runs_total"), projects), "ratio")
	b.set("serve.shed_ratio", share(dm.of("smpserve_shed_requests_total"), dm.of("smpserve_requests_total")), "ratio")
}

// serveProbe measures the smpserve layer: open-loop traffic over a small
// document pool, so that every traced run reports the service's per-layer
// metrics. The server's document cache holds under half of the pool and its
// plan cache fewer plans than there are specs, so eviction, sidecar
// clean-up and compile-on-miss run during the probe.
func (b *bench) serveProbe() error {
	dir := filepath.Join(b.work, "serve-probe")
	n := max(4, int(16*b.cfg.scale))
	sizes := logSizes(n, int64(16<<10*b.cfg.scale)+4096, int64(64<<10*b.cfg.scale)+8192, mix(b.cfg.seed, 7000))
	var docs []*doc
	var pool int64
	for i, sz := range sizes {
		d, err := genDoc(5000+i, datasets[i%2], sz, mix(b.cfg.seed, 7001+i))
		if err != nil {
			return err
		}
		docs = append(docs, d)
		pool += int64(len(d.data))
	}
	specs := paperSpecs()
	ref, err := b.references(docs, specs)
	if err != nil {
		return err
	}
	rig := newServeRig(b, dir, docs, specs, ref, pool*45/100, len(specs)*2/3)
	if err := rig.start(); err != nil {
		return err
	}
	defer rig.stop()
	before, err := rig.scrape()
	if err != nil {
		return err
	}
	p, err := rig.phase(serveProbeRate, time.Duration(1.5*float64(time.Second)), mix(b.cfg.seed, 7100))
	if err != nil {
		return err
	}
	after, err := rig.scrape()
	if err != nil {
		return err
	}
	b.attempted += p.attempted
	b.failed += p.failed
	b.reportServeLayer(p, delta{before, after})
	return nil
}
