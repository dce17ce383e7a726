package des

import (
	"context"

	"greednet/internal/randdist"
)

// The scheduling engine: Poisson arrivals, general unit-mean service, and
// NON-preemptive schedulers that pick the next packet to transmit whole —
// the setting of real packet networks and of the Fair Queueing algorithm
// of Demers, Keshav & Shenker that §5.2 discusses.  (The preemptive
// priority engine lives in gsim.go; the memoryless CTMC engine in des.go.)
// RunSched is RunG's calendar loop (runCalendar in station.go) with every
// packet in one class, so the Scheduler orders the queue; the frozen heap
// baseline is preserved in heapref.go.

// Scheduler selects the next packet to transmit.
type Scheduler interface {
	// Name identifies the scheduler.
	Name() string
	// Reset prepares for a run.
	Reset(rates []float64)
	// Enqueue admits an arriving packet; now is the arrival time and
	// p.remaining its full transmission time (known at arrival, as packet
	// lengths are on real links).
	Enqueue(p *gpacket, now float64)
	// Dequeue removes and returns the next packet to transmit.  Called
	// only when Len() > 0, at time now.
	Dequeue(now float64) *gpacket
	// Len is the number of queued packets.
	Len() int
}

// FCFSSched transmits packets in arrival order (the baseline).  The queue
// advances a head index on Dequeue and compacts in place once the dead
// prefix dominates — the same amortization as fifoQueue in
// disciplines.go — so the backing array stops growing (and stops
// re-allocating) at the high-water backlog.  The historical `q = q[1:]`
// dequeue kept every popped packet reachable and leaked capacity forever.
type FCFSSched struct {
	q    []*gpacket
	head int
}

// Name implements Scheduler.
func (f *FCFSSched) Name() string { return "fcfs" }

// Reset implements Scheduler.
func (f *FCFSSched) Reset(rates []float64) {
	f.q = f.q[:0]
	f.head = 0
}

// Enqueue implements Scheduler.
func (f *FCFSSched) Enqueue(p *gpacket, now float64) { f.q = append(f.q, p) }

// Dequeue implements Scheduler.
func (f *FCFSSched) Dequeue(now float64) *gpacket {
	p := f.q[f.head]
	f.q[f.head] = nil // release the slot: a departed packet must not stay reachable
	f.head++
	if f.head > 64 && f.head*2 >= len(f.q) {
		f.q = append(f.q[:0], f.q[f.head:]...)
		f.head = 0
	}
	return p
}

// Len implements Scheduler.
func (f *FCFSSched) Len() int { return len(f.q) - f.head }

// fqItem is a tagged packet in the FQ heap.
type fqItem struct {
	p      *gpacket
	finish float64
	seq    int64 // FIFO tie-break
}

// fqHeap is a binary min-heap on (finish, seq).  That order is strict
// and total (seq is unique), so the pop sequence is the one any correct
// heap yields; the heap is typed, so pushes and pops box nothing.
type fqHeap []fqItem

// less orders by finish tag, then arrival; two strict compares, no float
// equality.
func (h fqHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	return a.finish < b.finish || (!(b.finish < a.finish) && a.seq < b.seq)
}

func (h *fqHeap) push(it fqItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *fqHeap) pop() fqItem {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = fqItem{} // zero the vacated tail: the popped packet pointer must not linger in the backing array
	s = s[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && s.less(j+1, j) {
			j++
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s
	return top
}

// FQSched is the Fair Queueing scheduler of Demers, Keshav & Shenker:
// it emulates bit-by-bit round robin by tracking a virtual time V(t) that
// advances at rate 1/(number of backlogged flows), stamps each arriving
// packet with a virtual finish time
//
//	F = max(V(arrival), F_prev(flow)) + length,
//
// and always transmits the queued packet with the smallest finish tag.
// It approximates head-of-line processor sharing without time-slicing.
type FQSched struct {
	h          fqHeap
	lastFinish []float64 // per-flow previous finish tag
	queued     []int     // per-flow queued-packet count (backlog tracking)
	backlogged int
	vtime      float64
	lastUpdate float64
	seq        int64
}

// Name implements Scheduler.
func (f *FQSched) Name() string { return "fair-queueing" }

// Reset implements Scheduler.
func (f *FQSched) Reset(rates []float64) {
	n := len(rates)
	f.h = f.h[:0]
	f.lastFinish = make([]float64, n)
	f.queued = make([]int, n)
	f.backlogged = 0
	f.vtime = 0
	f.lastUpdate = 0
	f.seq = 0
}

// advance moves virtual time forward to now.  While k flows are
// backlogged, each receives a 1/k share of the server, so a bit-round
// completes every k real time units.
func (f *FQSched) advance(now float64) {
	if now > f.lastUpdate {
		if f.backlogged > 0 {
			f.vtime += (now - f.lastUpdate) / float64(f.backlogged)
		} else {
			// An idle server lets virtual time track real time so stale
			// finish tags do not advantage long-idle flows.
			f.vtime += now - f.lastUpdate
		}
		f.lastUpdate = now
	}
}

// Enqueue implements Scheduler.
func (f *FQSched) Enqueue(p *gpacket, now float64) {
	f.advance(now)
	u := p.user
	start := f.vtime
	if f.lastFinish[u] > start {
		start = f.lastFinish[u]
	}
	finish := start + p.remaining
	f.lastFinish[u] = finish
	if f.queued[u] == 0 {
		f.backlogged++
	}
	f.queued[u]++
	f.seq++
	f.h.push(fqItem{p: p, finish: finish, seq: f.seq})
}

// Dequeue implements Scheduler.
func (f *FQSched) Dequeue(now float64) *gpacket {
	f.advance(now)
	it := f.h.pop()
	u := it.p.user
	f.queued[u]--
	if f.queued[u] == 0 {
		f.backlogged--
	}
	return it.p
}

// Len implements Scheduler.
func (f *FQSched) Len() int { return len(f.h) }

// SchedConfig parameterizes a non-preemptive scheduling run.
type SchedConfig struct {
	// Rates are the per-flow Poisson rates (Σ < 1).
	Rates []float64
	// Service is the unit-mean packet-length distribution; default
	// exponential.
	Service randdist.Dist
	// Sched is the scheduler under test; default FCFS.
	Sched Scheduler
	// Horizon, Warmup, Seed, Batches behave as in Config.
	Horizon, Warmup float64
	Seed            int64
	Batches         int
}

// RunSched simulates the non-preemptive scheduler.
func RunSched(cfg SchedConfig) (Result, error) {
	return RunSchedCtx(context.Background(), cfg)
}

// RunSchedCtx is RunSched under a context; see RunCtx for the
// cancellation contract (typed error, no partial statistics).  It is the
// calendar loop of RunG with every packet in class 0, so nothing
// preempts and the Scheduler alone orders the queue.
func RunSchedCtx(ctx context.Context, cfg SchedConfig) (Result, error) {
	st, err := newStation(cfg.Rates, cfg.Horizon, cfg.Warmup, cfg.Batches)
	if err != nil {
		return Result{}, err
	}
	sch := cfg.Sched
	if sch == nil {
		sch = &FCFSSched{}
	}
	sch.Reset(cfg.Rates)
	return runCalendar(ctx, st, cfg.Service, SingleClass{}, sch, randdist.NewRand(cfg.Seed))
}
