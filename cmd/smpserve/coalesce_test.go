package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"smp"
)

// coalescingServer builds a test server with the coalescer, the document
// cache and the admission budget all enabled. The window is generous (the
// tests synchronize on concurrency, not on wall-clock) and fires early at
// maxBatch.
func coalescingServer(t *testing.T, window time.Duration, maxBatch int) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(16, 0, smp.Options{})
	srv.coal = newCoalescer(srv, window, maxBatch)
	srv.docs = newDocCache(t.TempDir(), 64<<20)
	srv.adm.max = 64 << 20
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

func projectURL(ts *httptest.Server, spec string, extra string) string {
	u := ts.URL + "/project?paths=" + url.QueryEscape(spec)
	if extra != "" {
		u += "&" + extra
	}
	return u
}

func doProject(t *testing.T, ts *httptest.Server, spec, extra, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, projectURL(ts, spec, extra), strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-SMP-DTD", url.PathEscape(auctionDTD))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestCoalescingByteIdentity launches a burst of concurrent requests for
// the same document body and checks that (a) they were actually coalesced
// into shared batches and (b) every response is byte-identical to the
// standalone Project output for its path set — the core contract.
func TestCoalescingByteIdentity(t *testing.T) {
	srv, ts := coalescingServer(t, 50*time.Millisecond, 64)

	specs := []string{
		"/*, //australia//name#",
		"//item/description#",
		"/*, //australia//name#", // duplicate of spec 0: shares a query slot
		"//regions//location#",
	}
	// Reference outputs via the standalone library path.
	want := make(map[string]string)
	for _, spec := range specs {
		pf, err := smp.Compile(auctionDTD, spec, smp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := pf.Project(context.Background(), &buf, strings.NewReader(auctionDoc)); err != nil {
			t.Fatal(err)
		}
		want[spec] = buf.String()
	}

	const perSpec = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(specs)*perSpec)
	for _, spec := range specs {
		for i := 0; i < perSpec; i++ {
			wg.Add(1)
			go func(spec string) {
				defer wg.Done()
				resp, out := doProject(t, ts, spec, "", auctionDoc)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("spec %q: status %d: %s", spec, resp.StatusCode, out)
					return
				}
				if string(out) != want[spec] {
					errs <- fmt.Errorf("spec %q: coalesced output diverges:\n got %q\nwant %q", spec, out, want[spec])
				}
			}(spec)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	c := srv.metrics.snapshot()
	if c.CoalesceBatches == 0 {
		t.Fatal("no coalesce batches ran")
	}
	if c.CoalescedRequests == 0 {
		t.Error("no request was marked coalesced despite the concurrent burst")
	}
	var histSum int64
	for _, n := range c.BatchHist {
		histSum += n
	}
	if histSum != c.CoalesceBatches {
		t.Errorf("batch histogram sums to %d, want CoalesceBatches = %d", histSum, c.CoalesceBatches)
	}
}

// TestCoalescingOptOut checks that ?coalesce=off bypasses the coalescer —
// the knob the load harness uses to compare on/off against one server.
func TestCoalescingOptOut(t *testing.T) {
	srv, ts := coalescingServer(t, 50*time.Millisecond, 64)
	resp, out := doProject(t, ts, "/*, //australia//name#", "coalesce=off", auctionDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-SMP-Coalesced-Batch"); got != "" {
		t.Errorf("coalesce=off still went through the coalescer (batch header %q)", got)
	}
	if c := srv.metrics.snapshot(); c.CoalesceBatches != 0 {
		t.Errorf("CoalesceBatches = %d after an opted-out request, want 0", c.CoalesceBatches)
	}
}

// TestCoalescedErrorIsolation runs a syntactically-broken request (its
// spec does not parse) concurrently with a healthy same-document request:
// the broken one gets its clean 400, the healthy one gets its bytes. A
// non-conforming document, in turn, fails its own batch with a clean 422
// (buffered outputs — no mid-stream connection cut) without disturbing
// batches for other documents.
func TestCoalescedErrorIsolation(t *testing.T) {
	_, ts := coalescingServer(t, 100*time.Millisecond, 64)

	var wg sync.WaitGroup
	type result struct {
		code int
		body string
	}
	results := make([]result, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		resp, out := doProject(t, ts, "/*, //australia//name#", "", auctionDoc)
		results[0] = result{resp.StatusCode, string(out)}
	}()
	go func() {
		defer wg.Done()
		resp, out := doProject(t, ts, "//item[", "", auctionDoc)
		results[1] = result{resp.StatusCode, string(out)}
	}()
	go func() {
		defer wg.Done()
		// A document that does not conform to the DTD: the prefilter is
		// content-lenient (it filters, it does not validate), so this is a
		// clean 200 with an empty projection — identical to the standalone
		// path — not a failure that could poison the batch.
		resp, out := doProject(t, ts, "//item/description#", "", "<bogus><not_in_dtd/></bogus>")
		results[2] = result{resp.StatusCode, string(out)}
	}()
	wg.Wait()

	if results[0].code != http.StatusOK {
		t.Errorf("healthy batchmate got status %d: %s", results[0].code, results[0].body)
	}
	if !strings.Contains(results[0].body, "<name>PDA</name>") {
		t.Errorf("healthy batchmate output %q misses its match", results[0].body)
	}
	if results[1].code != http.StatusBadRequest {
		t.Errorf("unparseable spec got status %d, want 400", results[1].code)
	}
	if results[2].code != http.StatusOK || results[2].body != "" {
		t.Errorf("non-conforming document got status %d body %q, want an empty 200", results[2].code, results[2].body)
	}
}

// TestCoalescedCancellation checks that one client disconnecting mid-wait
// does not fail its batchmates, and that a batch whose every waiter is gone
// is cancelled instead of scanning for nobody.
func TestCoalescedCancellation(t *testing.T) {
	srv, ts := coalescingServer(t, 150*time.Millisecond, 64)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		projectURL(ts, "//item/description#", ""), strings.NewReader(auctionDoc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-SMP-DTD", url.PathEscape(auctionDTD))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// This waiter joins and then disconnects before the window fires.
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	var survivorCode int
	var survivorBody string
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond) // join the same window
		cancel()                          // first waiter disconnects
		resp, out := doProject(t, ts, "//item/description#", "", auctionDoc)
		survivorCode, survivorBody = resp.StatusCode, string(out)
	}()
	wg.Wait()

	if survivorCode != http.StatusOK {
		t.Fatalf("surviving batchmate got status %d: %s", survivorCode, survivorBody)
	}
	if !strings.Contains(survivorBody, "Palm Zire 71") {
		t.Errorf("surviving batchmate output %q misses its match", survivorBody)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.snapshot().Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnected waiter was never counted as cancelled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoalescerSoak is the -race soak: hundreds of goroutines mixing
// identical-document, distinct-document, cancelled and malformed requests
// against one coalescing server. Every successful response must be
// byte-identical to the standalone Project output for its (document, spec)
// pair, and the server must unwind to its goroutine baseline afterwards.
func TestCoalescerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	srv, ts := coalescingServer(t, 2*time.Millisecond, 8)

	// A couple of distinct documents (different content hashes) plus specs.
	docs := []string{
		auctionDoc,
		`<site><regions><africa><item><location>Ghana</location><name>Lamp</name><payment>Cash</payment><description>Brass lamp</description><shipping/><incategory category="7"/></item></africa><asia/><australia/></regions></site>`,
	}
	specs := []string{
		"/*, //australia//name#",
		"//item/description#",
		"//regions//location#",
	}
	want := make(map[string]string) // doc \x00 spec -> reference output
	for _, doc := range docs {
		for _, spec := range specs {
			pf, err := smp.Compile(auctionDTD, spec, smp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := pf.Project(context.Background(), &buf, strings.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
			want[doc+"\x00"+spec] = buf.String()
		}
	}

	before := runtime.NumGoroutine()

	const workers = 24
	const perWorker = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				doc := docs[rng.Intn(len(docs))]
				spec := specs[rng.Intn(len(specs))]
				switch rng.Intn(5) {
				case 0: // cancelled mid-wait
					ctx, cancel := context.WithCancel(context.Background())
					req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
						projectURL(ts, spec, ""), strings.NewReader(doc))
					req.Header.Set("X-SMP-DTD", url.PathEscape(auctionDTD))
					// The delay is drawn here: rng is not safe for the
					// goroutine to share with this loop.
					delay := time.Duration(rng.Intn(3)) * time.Millisecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
					resp, err := ts.Client().Do(req)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 1: // malformed: unparseable spec → clean 400
					resp, _ := doProject(t, ts, "//item[", "", doc)
					if resp.StatusCode != http.StatusBadRequest {
						errs <- fmt.Errorf("malformed spec got status %d, want 400", resp.StatusCode)
					}
				default: // healthy request; verify byte identity
					resp, out := doProject(t, ts, spec, "", doc)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("status %d: %s", resp.StatusCode, out)
						continue
					}
					if string(out) != want[doc+"\x00"+spec] {
						errs <- fmt.Errorf("coalesced output diverges for spec %q", spec)
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All batches unwound: no leaked timer/runner goroutines, no stuck
	// admission reservations, a histogram consistent with the batch count.
	// Idle keep-alive connections (two goroutines per conn) are closed
	// first so the count can actually return to the baseline.
	ts.Client().CloseIdleConnections()
	waitGoroutines(t, before)
	if buffered, _ := srv.adm.view(); buffered != 0 {
		t.Errorf("admission gauge stuck at %d bytes after the soak", buffered)
	}
	c := srv.metrics.snapshot()
	var histSum int64
	for _, n := range c.BatchHist {
		histSum += n
	}
	if histSum != c.CoalesceBatches {
		t.Errorf("batch histogram sums to %d, want CoalesceBatches = %d", histSum, c.CoalesceBatches)
	}
	if c.InFlight != 0 {
		t.Errorf("InFlight gauge stuck at %d after the soak", c.InFlight)
	}
}

// waitGoroutines retries until the goroutine count drops back to the
// baseline (batch runners and HTTP keep-alives unwind asynchronously).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDocumentUploadAndProject exercises the content-addressed cache API:
// upload → ETag; re-upload → dedup; If-None-Match → 304 without a body
// read; project by doc=sha256:<hex> with an empty body; GET round-trip.
func TestDocumentUploadAndProject(t *testing.T) {
	srv, ts := coalescingServer(t, 10*time.Millisecond, 8)

	post := func(body string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/documents", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := post(auctionDoc, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d, want 201", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	hash, ok := parseDocRef(etag)
	if !ok {
		t.Fatalf("upload ETag %q does not parse as a document reference", etag)
	}
	if want := hashBytes([]byte(auctionDoc)); hash != want {
		t.Fatalf("upload ETag digest = %s, want %s", hash, want)
	}

	// Conditional re-upload: the body must not even be read.
	resp = post("ignored body", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional re-upload status %d, want 304", resp.StatusCode)
	}

	// Project the cached document with an empty body.
	projResp, out := doProject(t, ts, "/*, //australia//name#", "doc="+url.QueryEscape(hashScheme+":"+hash), "")
	if projResp.StatusCode != http.StatusOK {
		t.Fatalf("doc= projection status %d: %s", projResp.StatusCode, out)
	}
	if !strings.Contains(string(out), "<name>PDA</name>") {
		t.Errorf("doc= projection %q misses the item name", out)
	}

	// GET round-trip with ETag and 304.
	getResp, err := ts.Client().Get(ts.URL + "/documents/" + hashScheme + ":" + hash)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK || string(body) != auctionDoc {
		t.Fatalf("GET /documents status %d, body mismatch %v", getResp.StatusCode, string(body) != auctionDoc)
	}

	// Unknown digest → 404 with a hint.
	bogus := strings.Repeat("0", hashHexLen)
	missResp, out := doProject(t, ts, "/*", "doc="+url.QueryEscape(hashScheme+":"+bogus), "")
	if missResp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown digest status %d, want 404: %s", missResp.StatusCode, out)
	}

	if st := srv.docs.stats(); st.Docs != 1 || st.Stores != 1 {
		t.Errorf("doc cache stats = %+v, want 1 doc / 1 store", st)
	}
}

// TestAdmissionShedding drains the buffered-byte budget and checks the
// 429 + Retry-After answer, the shed counter, and recovery after release.
func TestAdmissionShedding(t *testing.T) {
	srv, ts := coalescingServer(t, 10*time.Millisecond, 8)
	srv.adm.max = 16 // tiny budget: any real document overflows it

	resp, out := doProject(t, ts, "/*, //australia//name#", "", auctionDoc)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request status %d, want 429: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if _, shed := srv.adm.view(); shed != 1 {
		t.Errorf("shed count = %d, want 1", shed)
	}
	// The budget is free again: a document under the limit goes through.
	srv.adm.max = 64 << 20
	resp, out = doProject(t, ts, "/*, //australia//name#", "", auctionDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery request status %d: %s", resp.StatusCode, out)
	}
}

// TestDocCacheEviction fills the cache past its byte budget and checks LRU
// eviction, the eviction counter, and that an evicted digest answers 404.
func TestDocCacheEviction(t *testing.T) {
	dc := newDocCache(t.TempDir(), 64)
	a := bytes.Repeat([]byte("a"), 40)
	b := bytes.Repeat([]byte("b"), 40)

	ea, err := dc.put(hashBytes(a), a)
	if err != nil {
		t.Fatal(err)
	}
	dc.release(ea)
	eb, err := dc.put(hashBytes(b), b)
	if err != nil {
		t.Fatal(err)
	}
	dc.release(eb)

	if _, ok := dc.get(hashBytes(a)); ok {
		t.Error("oldest entry survived an over-budget insert")
	}
	e, ok := dc.get(hashBytes(b))
	if !ok {
		t.Fatal("newest entry was evicted")
	}
	if !bytes.Equal(e.data, b) {
		t.Error("cached bytes corrupted")
	}
	dc.release(e)
	if st := dc.stats(); st.Evictions != 1 || st.Docs != 1 {
		t.Errorf("stats = %+v, want 1 eviction / 1 doc", st)
	}
}

// TestDocCacheEvictionWhileReferenced evicts an entry that a reader still
// holds: the bytes must stay valid until the last release, and the spool
// file must be gone afterwards.
func TestDocCacheEvictionWhileReferenced(t *testing.T) {
	dir := t.TempDir()
	dc := newDocCache(dir, 64)
	a := bytes.Repeat([]byte("a"), 40)
	b := bytes.Repeat([]byte("b"), 40)

	ea, err := dc.put(hashBytes(a), a)
	if err != nil {
		t.Fatal(err)
	}
	// Keep ea referenced while b evicts it.
	eb, err := dc.put(hashBytes(b), b)
	if err != nil {
		t.Fatal(err)
	}
	dc.release(eb)

	if !bytes.Equal(ea.data, a) {
		t.Fatal("evicted-but-referenced entry no longer serves its bytes")
	}
	dc.release(ea) // last release destroys

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if filepath.Ext(de.Name()) == ".xml" && strings.HasPrefix(de.Name(), hashBytes(a)) {
			t.Errorf("spool file %s survived the last release of a dead entry", de.Name())
		}
	}
}

// TestStatsConsistencyUnderHammer mutates the counters from many goroutines
// while /stats is polled concurrently: every snapshot must round-trip as
// JSON and satisfy the cross-field invariants (failures <= requests,
// histogram sums to the batch count) that field-by-field assembly used to
// violate.
func TestStatsConsistencyUnderHammer(t *testing.T) {
	srv, ts := coalescingServer(t, time.Millisecond, 4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					doProject(t, ts, "/*, //australia//name#", "", auctionDoc)
				case 1:
					doProject(t, ts, "//bad_spec#", "", auctionDoc)
				default:
					doProject(t, ts, "//item/description#", "coalesce=off", auctionDoc)
				}
			}
		}(w)
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("/stats did not round-trip as JSON: %v", err)
		}
		resp.Body.Close()
		if st.Failures > st.Requests {
			t.Fatalf("inconsistent snapshot: failures %d > requests %d", st.Failures, st.Requests)
		}
		if st.CoalescedRequests > st.Requests {
			t.Fatalf("inconsistent snapshot: coalesced %d > requests %d", st.CoalescedRequests, st.Requests)
		}
		var histSum int64
		for _, n := range st.CoalesceBatchHist {
			histSum += n
		}
		if histSum != st.CoalesceBatches {
			t.Fatalf("inconsistent snapshot: histogram sums to %d, batches %d", histSum, st.CoalesceBatches)
		}
		if st.RequestsInFlight < 0 {
			t.Fatalf("negative in-flight gauge %d", st.RequestsInFlight)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: the gauge must return to zero.
	c := srv.metrics.snapshot()
	if c.InFlight != 0 {
		t.Errorf("InFlight = %d after quiescing, want 0", c.InFlight)
	}
}
