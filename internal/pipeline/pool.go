package pipeline

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"sync"
	"time"

	"smp/internal/core"
	"smp/internal/obs"
)

// poolLookahead bounds how far a pool run scans past its slowest live
// query, in segments per worker, so memory is bounded by the segment size.
// At W=2 on a 2-CPU x86-64 container (multi-file benchmark files, 24 MiB,
// medians of 30 interleaved runs) 2, 4 and 8 ran within noise: XMark K=18
// 71.9, 71.6, 70.8 ms, MEDLINE K=5 24.2, 23.9, 24.5 ms. Replays are
// preferred, so the bound only binds when queries cannot keep up.
const poolLookahead = 4

// traceTIDWorker is the trace thread of pool worker 0; worker w records its
// scan and replay spans on traceTIDWorker+w. Thread 0 is the caller's
// compile span (see smp.WithTrace).
const traceTIDWorker = 1

// pool runs one projection on the caller plus W-1 helper goroutines, which
// start once the input proves longer than one segment. Each worker loops
// taking a task under the mutex: replay one query (the one furthest
// behind) over the scanned segments it has not replayed yet, or else cut
// the next segment (one worker at a time, so segments stay in input order)
// and scan it — or, replaying a stored stream, slice it. A claimed query is
// stepped outside the mutex on the worker's driver over a snapshot of the
// segments cut so far, and publishes its position in its slot when the task
// ends. Queries writing to the same destination are never claimed together.
type pool struct {
	ctx      context.Context
	trace    *obs.Trace
	queries  []*qrun
	drivers  []*driver // per worker: a segment snapshot and its stitch time
	scanners []*core.SegmentScanner
	in       *input // cut only by the producer token's holder
	helpers  sync.WaitGroup

	mu        sync.Mutex
	wake      sync.Cond
	segs      []*mseg // cut and not retired; segs[0] has sequence number first
	first     int
	ready     int  // segments [0, ready) are scanned
	producing bool // a worker holds the producer token
	busy      int  // tasks in flight
	inputDone bool // the input's last segment is cut
	stopped   bool // the run context was cancelled, or a replay panicked
	terminal  error
	panicked  any // a destination's panic, re-raised on the caller's goroutine
	slots     []slot
	next      int // the slot pick searches first
	groupBusy []bool
	held      int
	maxHeld   int
	scanDur   time.Duration
	workDur   time.Duration // the workers' time in work, less their idle waits
}

// slot is what the scheduler knows of one query: what its last task
// published, under the mutex.
type slot struct {
	seg     int // the segment the query replays next
	live    bool
	claimed bool
	// wait is, for a query that yielded, the first segment past its last
	// snapshot; it is claimable again once that segment is cut. -1 otherwise.
	wait int
	// group is the lowest index of a query writing to the same destination.
	group int
}

// newPool prepares a run over in's input on workers workers.
func newPool(ctx context.Context, e *Engine, dsts []io.Writer, in *input, workers int, trace *obs.Trace) *pool {
	p := &pool{ctx: ctx, trace: trace, in: in, queries: make([]*qrun, e.Len()),
		slots: make([]slot, e.Len()), groupBusy: make([]bool, e.Len())}
	p.wake.L = &p.mu
	for i, plan := range e.plans {
		out := dsts[i]
		if out == nil {
			out = io.Discard
		}
		k := &qrun{plan: plan, table: plan.Table(), rt: &e.replay[i], out: out}
		k.enter(plan.Table().Initial)
		p.queries[i], p.slots[i] = k, slot{live: k.live(), wait: -1, group: i}
		// One worker never writes two destinations at once.
		for j, o := range p.queries[:i] {
			if workers > 1 && sameWriter(out, o.out) {
				p.slots[i].group = p.slots[j].group
				break
			}
		}
	}
	for w := 0; w < workers; w++ {
		p.drivers = append(p.drivers, &driver{tokens: e.scan.Tokens(), closeOf: e.closeOf, timeWrites: trace != nil})
		if !in.replay {
			p.scanners = append(p.scanners, e.scan.NewScanner())
		}
		if trace != nil {
			trace.NameThread(traceTIDWorker+w, fmt.Sprintf("worker %d", w))
		}
	}
	return p
}

// sameWriter reports whether two destinations are one writer: equal
// interface values of a comparable type. io.Discard keeps no state, so any
// number of goroutines may write it at once.
func sameWriter(a, b io.Writer) bool {
	t := reflect.TypeOf(a)
	return a != io.Discard && t == reflect.TypeOf(b) && t.Comparable() && a == b
}

// run executes the projection on the caller, settles every query and
// reports the run. The stage durations are summed across the workers: the
// scan tasks, the writes (traced runs only), and the rest of the workers'
// busy time as replay.
func (p *pool) run() (Result, error) {
	p.work(0)
	p.helpers.Wait()
	if p.panicked != nil {
		panic(p.panicked)
	}

	p.finish()
	scan := core.Stats{BytesRead: p.in.bytesRead, MaxBufferBytes: int64(p.maxHeld), ScanDuration: p.scanDur}
	for _, sc := range p.scanners {
		addScanCounters(&scan, sc)
	}
	for _, d := range p.drivers {
		scan.StitchDuration += d.stitchDur
	}
	scan.ReplayDuration = max(p.workDur-p.scanDur-scan.StitchDuration, 0)
	return p.result(scan)
}

// work is worker w's loop. The context is checked before every task, and
// a replay task checks it again before every segment.
func (p *pool) work(w int) {
	start, idle := time.Now(), time.Duration(0)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if err := p.ctx.Err(); err != nil && !p.stopped {
			p.stopped = true
			if p.terminal == nil {
				p.terminal = err
			}
		}
		if !p.stopped {
			// Cutting a stored stream costs next to nothing, so with
			// workers contending for the mutex it runs ahead to the
			// lookahead and each replay task takes several segments. One
			// worker, and every scan, cuts only when no replay is
			// claimable, so a segment's candidates stay in cache across
			// the K replays.
			if p.in.replay && len(p.drivers) > 1 && p.canProduce() {
				p.produce(w)
				continue
			}
			if i := p.pick(); i >= 0 {
				p.replay(w, i)
				continue
			}
			if p.canProduce() {
				p.produce(w)
				continue
			}
		}
		// With input left and a query live, a replay is claimable or the
		// lookahead admits a scan, so an idle pool is a finished one.
		if p.busy == 0 && (p.stopped || p.inputDone || !p.anyLive()) {
			p.workDur += time.Since(start) - idle
			p.wake.Broadcast()
			return
		}
		t0 := time.Now()
		p.wake.Wait()
		idle += time.Since(t0)
	}
}

// startHelpers starts the W-1 helper goroutines. They start once the first
// cut leaves input over, so an input of one segment runs on the caller
// alone.
func (p *pool) startHelpers() {
	for w := 1; w < len(p.drivers); w++ {
		p.helpers.Add(1)
		go func() {
			defer p.helpers.Done()
			p.work(w)
		}()
	}
}

func (p *pool) numCut() int { return p.first + len(p.segs) }

func (p *pool) anyLive() bool {
	for i := range p.slots {
		if p.slots[i].live {
			return true
		}
	}
	return false
}

// pick returns the claimable query furthest behind, or -1: live, unclaimed,
// its destination free, and a scanned segment to replay — or, if it
// yielded, the input it waited for cut. The search starts after the last
// pick and stops at a query on the oldest held segment, which nobody is
// behind, so K queries stepped in turn cost K short searches, not K².
func (p *pool) pick() int {
	best, n := -1, len(p.slots)
search:
	for j := 0; j < n; j++ {
		i := (p.next + j) % n
		s := &p.slots[i]
		switch {
		case !s.live || s.claimed || p.groupBusy[s.group]:
		case s.wait >= 0 && p.numCut() <= s.wait && !p.inputDone:
		case s.wait < 0 && p.ready <= s.seg:
		case best < 0 || s.seg < p.slots[best].seg:
			best = i
			if s.seg == p.first {
				break search
			}
		}
	}
	if best >= 0 {
		p.next = (best + 1) % n
	}
	return best
}

// canProduce reports whether a worker may cut and scan the next segment:
// input is left, nobody is cutting, and the segment lies within the
// lookahead of the slowest live query (counted, for a query chasing a long
// tag, from the segment its chase waits for).
func (p *pool) canProduce() bool {
	if p.producing || p.inputDone {
		return false
	}
	low := -1
	for i := range p.slots {
		if s := &p.slots[i]; s.live && (low < 0 || max(s.seg, s.wait) < low) {
			low = max(s.seg, s.wait)
		}
	}
	return low >= 0 && p.numCut() < low+poolLookahead*len(p.drivers)
}

// replay runs one replay task: worker w claims query i and steps it outside
// the mutex over the segments cut so far, consuming candidates from the
// scanned ones only, then publishes where it got to.
func (p *pool) replay(w, i int) {
	s, k, d := &p.slots[i], p.queries[i], p.drivers[w]
	s.claimed, p.groupBusy[s.group] = true, true
	p.busy++
	terminal := errPending
	if p.inputDone {
		terminal = p.terminal
	}
	d.snapshot(p.segs[s.seg-p.first:], s.seg, terminal)
	ready := p.ready
	p.mu.Unlock()

	var t0 time.Time
	if p.trace != nil {
		t0 = time.Now()
	}
	yielded, panicked := p.step(d, k, ready)
	if p.trace != nil {
		p.trace.Add(fmt.Sprintf("replay q%d", i), traceTIDWorker+w, t0.Sub(p.trace.Origin()), time.Since(t0))
	}

	p.mu.Lock()
	if panicked != nil {
		p.stopped, p.panicked = true, panicked
	}
	s.claimed, p.groupBusy[s.group] = false, false
	p.busy--
	s.seg, s.live, s.wait = k.seg, k.live(), -1
	if yielded {
		s.wait = d.lastSeq() + 1
	}
	d.segs = nil
	p.retire()
	p.wake.Broadcast()
}

// step replays k over the segments before ready and reports whether it
// yielded. A panic from a destination's Write is recovered and returned, so
// the pool can stop and re-raise it on the caller's goroutine.
func (p *pool) step(d *driver, k *qrun, ready int) (yielded bool, panicked any) {
	defer func() { panicked = recover() }()
	for k.live() && k.seg < ready && p.ctx.Err() == nil && !yielded {
		yielded = !d.advance(k)
	}
	return yielded, nil
}

// produce runs one scan task: worker w takes the producer token, cuts the
// next segment outside the mutex, appends it, hands the token on, and
// scans the segment. A stored stream's segment arrives with its candidates.
func (p *pool) produce(w int) {
	p.producing = true
	p.busy++
	// The input's free lists are only touched under the mutex.
	cands, buf := pop(&p.in.freeCands), pop(&p.in.freeData)
	p.mu.Unlock()

	t0 := time.Now()
	seg := p.in.cutNext(buf)

	p.mu.Lock()
	p.producing, p.inputDone = false, p.in.done
	if p.terminal == nil {
		p.terminal = p.in.terminal
	}
	p.segs = append(p.segs, seg)
	p.held += len(seg.data)
	p.maxHeld = max(p.maxHeld, p.held)
	if p.numCut() == 1 && !p.inputDone {
		p.startHelpers()
	}
	if !seg.scanned {
		p.wake.Broadcast()
		p.mu.Unlock()
		seg.cands = p.scanners[w].Scan(cands, seg.data, seg.base, seg.owned, seg.final)
		p.mu.Lock()
		seg.scanned = true
	}
	dur := time.Since(t0)
	if p.trace != nil {
		p.trace.Add("scan", traceTIDWorker+w, t0.Sub(p.trace.Origin()), dur)
	}
	for p.ready < p.numCut() && p.segs[p.ready-p.first].scanned {
		p.ready++
	}
	p.busy--
	p.scanDur += dur
	p.wake.Broadcast()
}

// retire drops the scanned head segments no live or claimed query still
// needs, recycling their buffers. The search starts at the query pick
// tries next, the likeliest to be behind.
func (p *pool) retire() {
	n := len(p.slots)
	for p.first < p.ready {
		for j := 0; j < n; j++ {
			if s := &p.slots[(p.next+j)%n]; (s.live || s.claimed) && s.seg <= p.first {
				return
			}
		}
		head := p.segs[0]
		p.segs = p.segs[1:]
		p.first++
		p.held -= len(head.data)
		p.in.recycle(head)
	}
}

// finish settles every query still live once the input is exhausted: a
// terminal input error (read failure, cancelled context) fails each of them
// — the standalone engine would have hit the same error at its window's next
// read, even in a final state — while a clean end of input completes queries
// whose state is final and diagnoses the others exactly as the serial
// engine's end-of-input path does.
func (p *pool) finish() {
	for _, k := range p.queries {
		switch {
		case !k.live():
		case p.terminal != nil:
			k.err = p.terminal
		case k.st.Final:
			k.done = true
		default:
			k.err = core.EndOfInputError(k.q, k.st)
		}
	}
}

// result assembles the per-query Stats and error slots around the run's
// shared scan-side counters.
func (p *pool) result(scan core.Stats) (Result, error) {
	res := Result{Query: make([]core.Stats, len(p.queries)), Scan: scan}

	failed := false
	for i, k := range p.queries {
		k.stats.BytesRead = res.Scan.BytesRead
		k.stats.States = k.table.Stats.States
		k.stats.CWStates = k.table.Stats.CWStates
		k.stats.BMStates = k.table.Stats.BMStates
		k.stats.MatchersBuilt = k.plan.MatcherCount()
		res.Query[i] = k.stats
		if k.err != nil {
			failed = true
		}
	}
	if !failed {
		return res, nil
	}
	errs := make([]error, len(p.queries))
	for i, k := range p.queries {
		errs[i] = k.err
	}
	return res, &Error{Errs: errs}
}
