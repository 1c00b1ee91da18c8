package simmpi

// The reference runtime: the oracle the discrete-event engine is
// checked against. Every rank runs on its own goroutine, free to
// interleave under the Go scheduler; messages travel through a
// mutex-sharded mailbox table; and world collectives run as per-rank
// point-to-point algorithms (dissemination barrier, recursive-doubling
// allreduce, binomial trees, ring allgather, pairwise all-to-all,
// recursive-halving reduce-scatter, linear scan) built from the same
// Send/Recv every body uses. It shares only the per-rank accounting
// (sendCore/recvCore, the PMU, the trace) with the engine — not the
// scheduling, the matching, or the batched collective executor — so a
// byte-identical digest under both runtimes (engine_test.go) checks
// those three independently.

import (
	"fmt"
	"sync"

	"a64fxbench/internal/metrics"
	"a64fxbench/internal/units"
)

// runRef is Run under the reference runtime.
func runRef(cfg JobConfig, body func(*Rank) error) (Report, error) {
	return run(cfg, body, runReference)
}

// reference is the per-job state of the reference runtime.
type reference struct {
	j     *job
	boxes boxTable
}

// runReference executes body with one goroutine per rank.
func runReference(j *job, ranks []*Rank, body func(*Rank) error) error {
	ref := &reference{j: j}
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for _, r := range ranks {
		r.eng = ref
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r.id] = fmt.Errorf("rank %d panicked: %v", r.id, p)
				}
			}()
			errs[r.id] = body(r)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (ref *reference) post(src, dst, tag int, m message) {
	ref.boxes.send(mailboxKey{src, dst, tag}, m)
}

func (ref *reference) await(r *Rank, src, tag int) message {
	return ref.boxes.recv(mailboxKey{src, r.id, tag})
}

func (ref *reference) splitWait(_ *Rank, done <-chan struct{}) { <-done }

func (ref *reference) price(srcNode, dstNode int, bytes units.Bytes) units.Duration {
	return ref.j.cfg.Fabric.PointToPoint(srcNode, dstNode, bytes)
}

func (ref *reference) collective(r *Rank, a collArgs) any {
	switch a.kind {
	case collBarrier:
		r.refBarrier()
	case collAllreduce:
		r.refAllreduce(a.buf, a.op)
	case collBcast:
		return r.refBcast(a.root, a.buf)
	case collReduce:
		r.refReduce(a.root, a.buf, a.op)
	case collAllgather:
		return r.refAllgather(a.buf, a.out)
	case collAlltoall:
		return r.refAlltoall(a.mat, a.recvMat)
	case collReduceScatter:
		return r.refReduceScatter(a.buf, a.op)
	case collExScan:
		return r.refExScan(a.buf, a.op)
	default:
		panic(fmt.Sprintf("reference: unknown collective %s", a.kind))
	}
	return nil
}

// mailboxKey routes messages: exact (src, dst, tag) matching, FIFO order.
type mailboxKey struct {
	src, dst, tag int
}

// boxShards is the shard count of a boxTable; a power of two so the
// hash can mask instead of mod.
const boxShards = 64

// mailbox is one route's in-flight queue. Protected by its shard's
// mutex; wake carries at most one token, sent when the sender observes
// a parked receiver. Every route has exactly one sender and one
// receiver: only the receiver parks, only the sender wakes, and only
// the receiver reclaims.
type mailbox struct {
	q       []message
	head    int
	waiting bool
	wake    chan struct{}
}

// boxShard is one lock domain of the table.
type boxShard struct {
	mu    sync.Mutex
	boxes map[mailboxKey]*mailbox
}

// boxTable is the reference runtime's routing table: sends append to an
// unbounded FIFO and never block, and a drained mailbox is removed from
// its shard and pooled. The zero value is ready to use.
type boxTable struct {
	shards [boxShards]boxShard
	pool   sync.Pool
}

// shard hashes a route to its lock domain.
func (t *boxTable) shard(k mailboxKey) *boxShard {
	h := uint64(k.src)*0x9E3779B97F4A7C15 ^ uint64(k.dst)*0xBF58476D1CE4E5B9 ^ uint64(k.tag)*0x94D049BB133111EB
	h ^= h >> 29
	return &t.shards[h&(boxShards-1)]
}

// get pops a pooled mailbox (or makes one) with its queue reset.
func (t *boxTable) get() *mailbox {
	if b, ok := t.pool.Get().(*mailbox); ok {
		return b
	}
	return &mailbox{wake: make(chan struct{}, 1)}
}

// box returns route k's mailbox, creating it. Called with s.mu held.
func (t *boxTable) box(s *boxShard, k mailboxKey) *mailbox {
	if s.boxes == nil {
		s.boxes = make(map[mailboxKey]*mailbox)
	}
	b := s.boxes[k]
	if b == nil {
		b = t.get()
		s.boxes[k] = b
	}
	return b
}

// send enqueues m on route k, waking the receiver if it is parked.
func (t *boxTable) send(k mailboxKey, m message) {
	s := t.shard(k)
	s.mu.Lock()
	b := t.box(s, k)
	b.q = append(b.q, m)
	wake := b.waiting
	b.waiting = false
	s.mu.Unlock()
	if wake {
		b.wake <- struct{}{}
	}
}

// recv dequeues the next message on route k, blocking until one
// arrives. A mailbox drained to empty is reclaimed into the pool — the
// receiver is the only party that removes boxes, so a parked receiver's
// box can never vanish underneath it.
func (t *boxTable) recv(k mailboxKey) message {
	s := t.shard(k)
	for {
		s.mu.Lock()
		b := t.box(s, k)
		if b.head < len(b.q) {
			m := b.q[b.head]
			b.q[b.head] = message{}
			b.head++
			if b.head == len(b.q) {
				delete(s.boxes, k)
				b.q = b.q[:0]
				b.head = 0
				t.pool.Put(b)
			}
			s.mu.Unlock()
			return m
		}
		b.waiting = true
		s.mu.Unlock()
		<-b.wake
	}
}

// The per-rank collective algorithms. Each is the sequence of sends,
// receives, copies and folds one rank makes; the batched executor in
// collective_batch.go replays exactly these sequences across all ranks.

// refBarrier is a dissemination barrier.
func (r *Rank) refBarrier() {
	defer r.collEnd(metrics.CollBarrier, r.collBegin())
	p := r.size
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		dst := (r.id + k) % p
		src := (r.id - k + p) % p
		r.Send(dst, tagBarrier+round, nil, 0)
		r.Recv(src, tagBarrier+round)
	}
}

// refAllreduce is recursive doubling with the standard pre/post folding
// for non-power-of-two sizes.
func (r *Rank) refAllreduce(buf []float64, op Op) {
	defer r.collEnd(metrics.CollAllreduce, r.collBegin())
	p := r.size
	// pof2 is the largest power of two ≤ p.
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	id := r.id
	// Phase 1: the first 2*rem ranks fold pairs so pof2 ranks remain.
	newID := -1
	switch {
	case id < 2*rem && id%2 == 0:
		// Sends data to the odd partner and drops out.
		r.SendFloats(id+1, tagReduce, append([]float64(nil), buf...))
	case id < 2*rem:
		other := r.RecvFloats(id-1, tagReduce)
		for i := range buf {
			buf[i] = op(buf[i], other[i])
		}
		newID = id / 2
	default:
		newID = id - rem
	}
	// Phase 2: recursive doubling among the pof2 survivors.
	if newID >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			partnerNew := newID ^ mask
			var partner int
			if partnerNew < rem {
				partner = partnerNew*2 + 1
			} else {
				partner = partnerNew + rem
			}
			other := r.Sendrecv(partner, tagReduce+1+mask, append([]float64(nil), buf...))
			for i := range buf {
				buf[i] = op(buf[i], other[i])
			}
		}
	}
	// Phase 3: survivors return results to the dropped-out ranks.
	switch {
	case id < 2*rem && id%2 == 0:
		res := r.RecvFloats(id+1, tagReduce+2)
		copy(buf, res)
	case id < 2*rem:
		r.SendFloats(id-1, tagReduce+2, append([]float64(nil), buf...))
	}
}

// refBcast is a binomial tree rooted at root.
func (r *Rank) refBcast(root int, buf []float64) []float64 {
	defer r.collEnd(metrics.CollBcast, r.collBegin())
	p := r.size
	// Rotate so the root is virtual rank 0.
	vrank := (r.id - root + p) % p
	// Receive from parent (highest set bit), then forward down.
	if vrank != 0 {
		mask := 1
		for mask <= vrank {
			mask <<= 1
		}
		mask >>= 1
		parent := ((vrank - mask) + root) % p
		buf = r.RecvFloats(parent, tagBcast)
	}
	// Children: vrank + m for each m > current highest bit, m < p.
	low := 1
	for low <= vrank {
		low <<= 1
	}
	for m := low; vrank+m < p; m <<= 1 {
		child := (vrank + m + root) % p
		r.SendFloats(child, tagBcast, append([]float64(nil), buf...))
	}
	return buf
}

// refReduce is a binomial combine onto the root.
func (r *Rank) refReduce(root int, buf []float64, op Op) {
	defer r.collEnd(metrics.CollReduce, r.collBegin())
	p := r.size
	vrank := (r.id - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask == 0 {
			partner := vrank | mask
			if partner < p {
				other := r.RecvFloats((partner+root)%p, tagReduce+3)
				for i := range buf {
					buf[i] = op(buf[i], other[i])
				}
			}
		} else {
			parent := vrank &^ mask
			r.SendFloats((parent+root)%p, tagReduce+3, append([]float64(nil), buf...))
			return
		}
		mask <<= 1
	}
}

// refAllgather is the ring algorithm; out arrives pre-filled with this
// rank's own block.
func (r *Rank) refAllgather(contrib, out []float64) []float64 {
	defer r.collEnd(metrics.CollAllgather, r.collBegin())
	p, n := r.size, len(contrib)
	right := (r.id + 1) % p
	left := (r.id - 1 + p) % p
	cur := r.id
	block := append([]float64(nil), contrib...)
	for step := 0; step < p-1; step++ {
		r.SendFloats(right, tagGather+step, block)
		block = r.RecvFloats(left, tagGather+step)
		cur = (cur - 1 + p) % p
		copy(out[cur*n:], block)
	}
	return out
}

// refAlltoall is the XOR pairwise exchange for power-of-two sizes and
// the rotation schedule otherwise; recv arrives pre-filled with this
// rank's own block.
func (r *Rank) refAlltoall(send, recv [][]float64) [][]float64 {
	defer r.collEnd(metrics.CollAlltoall, r.collBegin())
	p := r.size
	if p&(p-1) == 0 {
		for step := 1; step < p; step++ {
			partner := r.id ^ step
			recv[partner] = r.Sendrecv(partner, tagA2A+step, send[partner])
		}
		return recv
	}
	// Rotation: every rank sends to (id+step) and receives from
	// (id-step) each step, so all steps match.
	for step := 1; step < p; step++ {
		dst := (r.id + step) % p
		src := (r.id - step + p) % p
		r.SendFloats(dst, tagA2A+step, send[dst])
		recv[src] = r.RecvFloats(src, tagA2A+step)
	}
	return recv
}

// refReduceScatter is recursive halving for power-of-two sizes, and a
// nested Reduce to rank 0 followed by a linear scatter otherwise.
func (r *Rank) refReduceScatter(buf []float64, op Op) []float64 {
	defer r.collEnd(metrics.CollReduceScatter, r.collBegin())
	p, n := r.size, len(buf)
	blk := n / p
	if p&(p-1) != 0 {
		work := append([]float64(nil), buf...)
		r.refReduce(0, work, op)
		if r.id == 0 {
			for dst := 1; dst < p; dst++ {
				r.SendFloats(dst, tagRS, work[dst*blk:(dst+1)*blk])
			}
			return append([]float64(nil), work[:blk]...)
		}
		return r.RecvFloats(0, tagRS)
	}
	// At each step exchange the half of the buffer the partner is
	// responsible for.
	work := append([]float64(nil), buf...)
	lo, hi := 0, n
	for mask := p >> 1; mask >= 1; mask >>= 1 {
		partner := r.id ^ mask
		mid := (lo + hi) / 2
		var sendLo, sendHi, keepLo, keepHi int
		if r.id&mask == 0 {
			sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
		} else {
			sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
		}
		other := r.Sendrecv(partner, tagRS+1+mask, append([]float64(nil), work[sendLo:sendHi]...))
		for i := keepLo; i < keepHi; i++ {
			work[i] = op(work[i], other[i-keepLo])
		}
		lo, hi = keepLo, keepHi
	}
	return append([]float64(nil), work[lo:hi]...)
}

// refExScan is the linear pipeline.
func (r *Rank) refExScan(buf []float64, op Op) []float64 {
	defer r.collEnd(metrics.CollExScan, r.collBegin())
	out := make([]float64, len(buf))
	if r.id > 0 {
		prev := r.RecvFloats(r.id-1, tagScan)
		copy(out, prev)
	}
	if r.id < r.size-1 {
		next := make([]float64, len(buf))
		if r.id == 0 {
			copy(next, buf)
		} else {
			for i := range next {
				next[i] = op(out[i], buf[i])
			}
		}
		r.SendFloats(r.id+1, tagScan, next)
	}
	return out
}
