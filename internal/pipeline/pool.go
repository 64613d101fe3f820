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
// scan and replay spans on traceTIDWorker+w.
const traceTIDWorker = 4

// pool runs one W > 1 projection on the caller plus W-1 goroutines. Each
// worker loops taking a task under the mutex: replay one query (the one
// furthest behind) over the scanned segments it has not replayed yet, or
// else cut the next segment (one worker at a time, so segments stay in
// input order) and scan it. A claimed query is stepped outside the mutex on
// the worker's driver over a snapshot of the segments cut so far, and
// publishes its position in its slot when the task ends. Queries writing
// to the same destination are never claimed together.
type pool struct {
	ctx      context.Context
	trace    *obs.Trace
	main     *driver   // owns the queries; settles and reports them at the end
	drivers  []*driver // per worker: a segment snapshot and its stitch time
	scanners []*core.SegmentScanner
	in       *serialSource // cut only by the producer token's holder

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
	groupBusy []bool
	held      int
	maxHeld   int
	scanDur   time.Duration
	replayDur time.Duration
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
func newPool(ctx context.Context, e *Engine, dsts []io.Writer, in *serialSource, workers int, trace *obs.Trace) *pool {
	p := &pool{ctx: ctx, trace: trace, main: newDriver(e, dsts, nil, trace), in: in,
		slots: make([]slot, e.Len()), groupBusy: make([]bool, e.Len())}
	p.wake.L = &p.mu
	for i, k := range p.main.queries {
		p.slots[i] = slot{live: k.live(), wait: -1, group: i}
		for j, o := range p.main.queries[:i] {
			if sameWriter(k.out, o.out) {
				p.slots[i].group = p.slots[j].group
				break
			}
		}
	}
	for w := 0; w < workers; w++ {
		p.drivers = append(p.drivers, &driver{tokens: p.main.tokens, closeOf: p.main.closeOf, trace: trace})
		p.scanners = append(p.scanners, e.scan.NewScanner())
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

// run executes the projection and settles every query.
func (p *pool) run() (Result, error) {
	var wg sync.WaitGroup
	for w := 1; w < len(p.drivers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(w)
		}()
	}
	p.work(0)
	wg.Wait()
	if p.panicked != nil {
		panic(p.panicked)
	}

	p.main.finish(p.terminal)
	scan := core.Stats{BytesRead: p.in.bytesRead, MaxBufferBytes: int64(p.maxHeld), ScanDuration: p.scanDur}
	for _, sc := range p.scanners {
		addScanCounters(&scan, sc)
	}
	for _, d := range p.drivers {
		scan.StitchDuration += d.stitchDur
	}
	scan.ReplayDuration = max(p.replayDur-scan.StitchDuration, 0)
	return p.main.result(scan)
}

// work is worker w's loop. The context is checked before every task, and
// a replay task checks it again before every segment.
func (p *pool) work(w int) {
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
			p.wake.Broadcast()
			return
		}
		p.wake.Wait()
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
// yielded, the input it waited for cut.
func (p *pool) pick() int {
	best := -1
	for i := range p.slots {
		s := &p.slots[i]
		switch {
		case !s.live || s.claimed || p.groupBusy[s.group]:
		case s.wait >= 0 && p.numCut() <= s.wait && !p.inputDone:
		case s.wait < 0 && p.ready <= s.seg:
		case best < 0 || s.seg < p.slots[best].seg:
			best = i
		}
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
	s, k, d := &p.slots[i], p.main.queries[i], p.drivers[w]
	s.claimed, p.groupBusy[s.group] = true, true
	p.busy++
	d.segs, d.firstSeq = p.segs[s.seg-p.first:], s.seg
	d.terminal = errPending
	if p.inputDone {
		d.terminal = p.terminal
	}
	ready := p.ready
	p.mu.Unlock()

	t0, stitch0 := time.Now(), d.stitchDur
	yielded, panicked := p.step(d, k, ready)
	dur := time.Since(t0)
	if p.trace != nil {
		p.trace.Add(fmt.Sprintf("replay q%d", i), traceTIDWorker+w, t0.Sub(p.trace.Origin()), dur)
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
	p.replayDur += dur - (d.stitchDur - stitch0)
	p.retire()
	p.wake.Broadcast()
}

// step replays k over the segments before ready and reports whether it
// yielded. A panic from a destination's Write is recovered and returned, so
// the pool can stop and re-raise it on the caller's goroutine, where a
// serial run would have raised it.
func (p *pool) step(d *driver, k *qrun, ready int) (yielded bool, panicked any) {
	defer func() { panicked = recover() }()
	for k.live() && k.seg < ready && p.ctx.Err() == nil && !yielded {
		yielded = !d.advance(k, k.seg+1)
	}
	return yielded, nil
}

// produce runs one scan task: worker w takes the producer token, cuts the
// next segment outside the mutex, appends it, hands the token on, and
// scans the segment.
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
	p.wake.Broadcast()
	p.mu.Unlock()

	seg.cands = p.scanners[w].Scan(cands, seg.data, seg.base, seg.owned, seg.final)
	dur := time.Since(t0)
	if p.trace != nil {
		p.trace.Add("scan", traceTIDWorker+w, t0.Sub(p.trace.Origin()), dur)
	}

	p.mu.Lock()
	seg.scanned = true
	for p.ready < p.numCut() && p.segs[p.ready-p.first].scanned {
		p.ready++
	}
	p.busy--
	p.scanDur += dur
	p.wake.Broadcast()
}

// retire drops the scanned head segments no live or claimed query still
// needs, recycling their buffers.
func (p *pool) retire() {
	for p.first < p.ready {
		for i := range p.slots {
			if s := &p.slots[i]; (s.live || s.claimed) && s.seg <= p.first {
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
