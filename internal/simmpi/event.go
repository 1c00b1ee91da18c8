package simmpi

// The discrete-event engine: the simmpi runtime.
//
// All ranks of a job are driven as one single-threaded discrete-event
// simulation. Rank bodies still run on goroutines — Go has no
// first-class continuations — but exactly one of them holds the
// execution token at any instant: it runs until it blocks (an empty-box
// Recv, a world collective, a Split) or finishes, and then performs the
// scheduling step itself (handoff): it fires a world collective every
// rank has reached, pops the next runnable rank from a binary-heap
// ready queue keyed on (virtual time, rank, sequence), and resumes that
// rank over its 1-buffered channel. If it pops itself it carries on
// without a switch. There is no scheduler goroutine, so a switch is one
// channel send and one receive, not a rendezvous with a loop in
// between.
//
// Correctness rests on the conservative virtual-time rule (see package
// vclock): every inter-rank coupling happens through a message stamped
// with its availability time, and a receive completes at
// max(receiver clock, stamp). Any scheduling that runs a receive after
// its matching send therefore produces bit-identical results — the
// ready queue's ordering is a real-time optimisation, never a semantic
// choice. The differential suite in engine_test.go holds the engine to
// that promise against an independent goroutine-per-rank reference
// runtime (reference_test.go).
//
// Three things make this engine fast at 10⁴–10⁵ ranks:
//
//   - World collectives are executed as one batched event (see
//     collective_batch.go): when all p ranks have parked at the same
//     collective, the token holder replays each rank's exact per-rank
//     message sequence in a dependency-valid cross-rank order,
//     eliminating the ~2·p·log p context switches per collective.
//   - Identical messages collapse onto shared symmetric state: the
//     point-to-point model is a pure function of (hop count, bytes), so
//     the engine memoises prices and the p equal-size transfers of a
//     collective round cost a handful of model evaluations instead of p.
//   - The ready queue is an alloc-free slice-backed binary heap, and
//     rank goroutines are spawned lazily on first dispatch.

import (
	"fmt"

	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// rankState is where a rank currently is, from the engine's point of view.
type rankState uint8

const (
	stateReady rankState = iota // in the ready heap (or running)
	stateRecv                   // parked on an empty mailbox
	stateColl                   // parked at a world collective
	stateSplit                  // parked at a Split rendezvous
	stateDone                   // body returned (or unwound)
)

// evItem is one ready-queue entry: rank `rank` becomes runnable at
// virtual time `at`. seq breaks (at, rank) ties in insertion order —
// with unique ranks per entry it is belt-and-braces, but it pins the
// ordering contract down to a total order.
type evItem struct {
	at   vclock.Time
	rank int
	seq  uint64
}

// evHeap is a slice-backed binary min-heap of evItems ordered by
// (at, rank, seq). It never allocates beyond its high-water mark.
type evHeap struct {
	a []evItem
}

func (h *evHeap) len() int { return len(h.a) }

func evLess(x, y evItem) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.rank != y.rank {
		return x.rank < y.rank
	}
	return x.seq < y.seq
}

func (h *evHeap) push(it evItem) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(h.a[i], h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *evHeap) pop() evItem {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && evLess(h.a[l], h.a[small]) {
			small = l
		}
		if r < last && evLess(h.a[r], h.a[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}

// msgQueue is a FIFO of in-flight messages on one (src, dst, tag) route.
// Head-index draining keeps pops O(1); the backing array is reused once
// the queue empties. waiting marks the route's (single) receiver as
// parked on it — routes are single-reader, so a flag replaces a map.
type msgQueue struct {
	q       []message
	head    int
	waiting bool
}

func (q *msgQueue) empty() bool { return q.head == len(q.q) }

func (q *msgQueue) push(m message) { q.q = append(q.q, m) }

func (q *msgQueue) pop() message {
	m := q.q[q.head]
	q.q[q.head] = message{}
	q.head++
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	}
	return m
}

// queueArena hands out msgQueues in chunks so a job with r routes costs
// r/queueChunk allocations instead of r. Queues live for the whole job;
// nothing is ever returned.
type queueArena struct {
	chunk []msgQueue
}

const queueChunk = 256

func (a *queueArena) get() *msgQueue {
	if len(a.chunk) == 0 {
		a.chunk = make([]msgQueue, queueChunk)
	}
	q := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return q
}

// routeKey packs (src, tag) into the uint64 key of a per-receiver route
// table — the receiver is implicit in which table is consulted. The
// packed form keeps route lookups on the runtime's fast integer-map
// path, which the struct-keyed alternative misses; it requires tags to
// fit in 32 bits, which every tag in this codebase (user tags, the
// <= 2^27 internal collective tags, Comm tag bases) does by a wide
// margin.
func routeKey(src, tag int) uint64 {
	if int(uint32(tag)) != tag {
		panic(fmt.Sprintf("simmpi: tag %d overflows the event engine's 32-bit tag space", tag))
	}
	return uint64(uint32(src))<<32 | uint64(uint32(tag))
}

// engineKilled unwinds a parked rank goroutine when the engine aborts;
// the runner recognises it and exits without recording an error.
type engineKilled struct{}

// eventEngine is the per-job state of the discrete-event engine. It is
// mutated only by the goroutine holding the execution token — never by
// two goroutines at once, so it needs no locks: each handoff is a
// channel send that orders the old holder's writes before the new
// holder's reads.
type eventEngine struct {
	j     *job
	ranks []*Rank
	body  func(*Rank) error

	// resume[i] wakes rank i's goroutine; it is made (1-buffered, so
	// the handoff send never blocks) when the rank is first dispatched,
	// so a nil channel means the rank never started. exit closes when
	// the last rank has finished or unwound.
	resume []chan struct{}
	exit   chan struct{}
	state  []rankState

	ready evHeap
	seq   uint64

	// Point-to-point routing: per-receiver route tables keyed on
	// (src, tag), so each table stays small and cache-resident at any
	// rank count, and every lookup is an integer-keyed fast path. A
	// parked receiver is marked in the queue itself (routes are
	// single-reader, and the reader's identity is the table index).
	routes []map[uint64]*msgQueue
	arena  queueArena

	// World-collective rendezvous: per-rank arguments and results, and
	// the count of ranks parked in the current collective.
	collArgs []collArgs
	collRes  []any
	collIn   int
	collKind collKind

	// Split rendezvous: ranks parked waiting for the last arriver.
	splitParked []int

	// Scratch for the batched collective executor (collective_batch.go);
	// allocated once at first use, reused for every collective.
	slots   []message
	starts  []vclock.Time
	starts2 []vclock.Time
	blocks  [][]float64
	ints    []int
	lims    []int

	prices map[uint64]units.Duration

	errs []error
	done int

	// Abort state: err is the stall diagnosis, and ranks below unwind
	// have been unwound.
	aborted bool
	err     error
	unwind  int
}

// runEventLoop executes body on every rank under the discrete-event
// engine: it makes every rank runnable at time zero, hands the token to
// the first, and waits for the exit signal.
func runEventLoop(j *job, ranks []*Rank, body func(*Rank) error) error {
	p := len(ranks)
	e := &eventEngine{
		j:        j,
		ranks:    ranks,
		body:     body,
		resume:   make([]chan struct{}, p),
		exit:     make(chan struct{}),
		state:    make([]rankState, p),
		routes:   make([]map[uint64]*msgQueue, p),
		collArgs: make([]collArgs, p),
		collRes:  make([]any, p),
		prices:   make(map[uint64]units.Duration),
		errs:     make([]error, p),
	}
	e.ready.a = make([]evItem, 0, p)
	for i := range ranks {
		ranks[i].eng = e
		e.push(i, 0)
	}
	e.handoff(-1)
	<-e.exit
	if e.err != nil {
		return e.err
	}
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// push schedules rank i as runnable at virtual time `at`.
func (e *eventEngine) push(i int, at vclock.Time) {
	e.state[i] = stateReady
	e.ready.push(evItem{at: at, rank: i, seq: e.seq})
	e.seq++
}

// handoff passes the execution token on. The token holder runs it —
// rank self as it parks or finishes, or the launcher (self = -1) once
// at the start — and it performs one scheduling step: fire a world
// collective every rank has reached, pop the next ready rank, and
// resume it. It reports whether self was popped, in which case self
// keeps the token and carries on without a switch. When nothing is
// runnable but ranks remain, the engine aborts (see unwindNext).
func (e *eventEngine) handoff(self int) bool {
	for !e.aborted {
		if e.collIn == len(e.ranks) {
			e.runCollective()
			continue
		}
		if e.ready.len() == 0 {
			if e.done == len(e.ranks) {
				close(e.exit)
				return false
			}
			e.err = e.stallError()
			e.aborted = true
			break
		}
		i := e.ready.pop().rank
		if i == self {
			return true
		}
		e.dispatch(i)
		return false
	}
	return e.unwindNext(self)
}

// dispatch resumes rank i, starting its goroutine on first dispatch.
func (e *eventEngine) dispatch(i int) {
	if e.resume[i] == nil {
		e.resume[i] = make(chan struct{}, 1)
		go e.runner(e.ranks[i])
		return
	}
	e.resume[i] <- struct{}{}
}

// unwindNext is the token holder's step once the engine has aborted:
// the parked ranks unwind one after another. A holder that is itself
// parked unwinds first (park panics engineKilled when handoff returns
// true); every unwound rank's runner comes back here and resumes the
// next parked rank, and the last one signals exit. Every not-finished
// rank has started by then — an unstarted one would still be ready.
func (e *eventEngine) unwindNext(self int) bool {
	if self >= 0 && e.state[self] != stateDone {
		return true
	}
	for ; e.unwind < len(e.ranks); e.unwind++ {
		if i := e.unwind; e.state[i] != stateDone {
			e.resume[i] <- struct{}{}
			return false
		}
	}
	close(e.exit)
	return false
}

// runner is a rank goroutine: it owns the token on entry and whenever
// park returns, and passes it on exactly once on exit.
func (e *eventEngine) runner(r *Rank) {
	defer func() {
		if p := recover(); p != nil {
			if _, killed := p.(engineKilled); !killed {
				e.errs[r.id] = fmt.Errorf("rank %d panicked: %v", r.id, p)
			}
		}
		e.state[r.id] = stateDone
		e.done++
		e.handoff(r.id)
	}()
	if err := e.body(r); err != nil {
		e.errs[r.id] = err
	}
}

// park passes the token on and blocks until this rank is resumed. Must
// be called from r's own goroutine while it holds the token.
func (e *eventEngine) park(r *Rank) {
	if !e.handoff(r.id) {
		<-e.resume[r.id]
	}
	if e.aborted {
		panic(engineKilled{})
	}
}

// route resolves (or creates) the queue for messages src→dst with tag.
func (e *eventEngine) route(src, dst, tag int) *msgQueue {
	t := e.routes[dst]
	if t == nil {
		t = make(map[uint64]*msgQueue, 8)
		e.routes[dst] = t
	}
	k := routeKey(src, tag)
	q := t[k]
	if q == nil {
		q = e.arena.get()
		t[k] = q
	}
	return q
}

// post delivers a sent message. Sends never block; if the route's
// receiver is parked on it, the receiver becomes runnable at the later
// of its own clock and the message's availability.
func (e *eventEngine) post(src, dst, tag int, m message) {
	q := e.route(src, dst, tag)
	q.push(m)
	if q.waiting {
		q.waiting = false
		e.push(dst, vclock.Max(e.ranks[dst].clock.Now(), m.avail))
	}
}

// await returns the next message sent src→r with tag, parking the rank
// if none is pending yet. A route has a single reader, so at most one
// rank ever waits on it.
func (e *eventEngine) await(r *Rank, src, tag int) message {
	q := e.route(src, r.id, tag)
	if q.empty() {
		e.state[r.id] = stateRecv
		q.waiting = true
		e.park(r)
	}
	return q.pop()
}

// price memoises the contention-free point-to-point cost, which is a
// pure function of (hop count, bytes) for the job's fabric. The memo
// key packs hops+1 into the low byte (sizes here are byte counts well
// under 2^56, hop counts well under 255).
func (e *eventEngine) price(srcNode, dstNode int, bytes units.Bytes) units.Duration {
	f := e.j.cfg.Fabric
	hops := -1
	if srcNode != dstNode {
		hops = f.Topo.Hops(srcNode, dstNode)
	}
	if hops >= 255 {
		return f.PointToPoint(srcNode, dstNode, bytes) // beyond the memo's hop range
	}
	k := uint64(bytes)<<8 | uint64(uint8(hops+1))
	if d, ok := e.prices[k]; ok {
		return d
	}
	d := f.PointToPoint(srcNode, dstNode, bytes)
	e.prices[k] = d
	return d
}

// collective parks r at a world collective and returns its per-rank
// result once all ranks have arrived and the batched executor has run.
func (e *eventEngine) collective(r *Rank, a collArgs) any {
	if e.collIn == 0 {
		e.collKind = a.kind
	} else if a.kind != e.collKind {
		panic(fmt.Sprintf("simmpi: collective mismatch: rank %d entered %s while others are in %s",
			r.id, a.kind, e.collKind))
	}
	e.collArgs[r.id] = a
	e.collIn++
	e.state[r.id] = stateColl
	e.park(r)
	res := e.collRes[r.id]
	e.collRes[r.id] = nil
	return res
}

// runCollective fires once every rank has parked at the same world
// collective: the batched executor replays each rank's exact message
// sequence, then all ranks become runnable at their post-collective
// clocks. The rendezvous is cleared first, so a panic in the executor
// (a root mismatch) leaves the ranks parked and the engine aborts with
// the panicking holder's error instead of re-firing the collective.
func (e *eventEngine) runCollective() {
	e.collIn = 0
	runBatched(e, e.collKind, e.collArgs, e.collRes)
	for i, r := range e.ranks {
		e.collArgs[i] = collArgs{}
		e.push(i, r.clock.Now())
	}
}

// splitWait implements the Split rendezvous (comm.go): non-last
// arrivers park; the last arriver — done is already closed when it gets
// here — wakes everyone and continues without yielding. Splits
// serialise globally (a rank cannot reach its next Split before every
// rank passed the current one), so one parked list suffices.
func (e *eventEngine) splitWait(r *Rank, done <-chan struct{}) {
	select {
	case <-done:
		for _, id := range e.splitParked {
			e.push(id, e.ranks[id].clock.Now())
		}
		e.splitParked = e.splitParked[:0]
	default:
		e.state[r.id] = stateSplit
		e.splitParked = append(e.splitParked, r.id)
		e.park(r)
	}
}

// stallError reports why the engine stalled — a rank's error if one
// occurred, otherwise a deadlock diagnosis.
func (e *eventEngine) stallError() error {
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	var inRecv, inSplit int
	for _, s := range e.state {
		switch s {
		case stateRecv:
			inRecv++
		case stateSplit:
			inSplit++
		}
	}
	return fmt.Errorf("simmpi: event engine deadlock: %d/%d ranks finished, %d parked in a collective, %d on recv, %d in split",
		e.done, len(e.ranks), e.collIn, inRecv, inSplit)
}
