package des

import (
	"context"
	"math/rand"
	"sort"

	"greednet/internal/des/calq"
	"greednet/internal/randdist"
)

// The general-service engine: Poisson arrivals, arbitrary unit-mean
// service-time distribution, and preemptive-resume strict priority across
// classes (FIFO within a class).  With a single class this is plain M/G/1
// FIFO; with the Table-1 thinning classifier it realizes the generalized
// serial (Fair Share) allocation; with rank classes it is HOL priority.
// Unlike the memoryless engine in des.go, service completions must be
// scheduled explicitly and preempted work tracked.
//
// The event loop is runCalendar (station.go), shared with the scheduling
// engine in sched.go; classQueues below is its priority queue.  Events
// run on the calendar queue in internal/des/calq (O(1) amortized per
// event, no boxing); the frozen container/heap engine it replaced
// survives in heapref.go as the differential baseline.  Variates come
// through internal/randdist batches whose block size is 1 unless the
// run's draw order is provably pure (see seedArrivals and streamfree.go),
// so every seeded stream is byte-identical to the historical engine.

// Classifier assigns a priority class (0 = highest) to an arriving packet.
type Classifier interface {
	// Name identifies the classifier.
	Name() string
	// Reset prepares for a run; rates are the per-user Poisson rates.
	Reset(rates []float64, rng *rand.Rand)
	// Classify returns the class for a packet from the given user, in
	// [0, NumClasses()).
	Classify(user int) int
	// NumClasses is the number of priority classes.
	NumClasses() int
}

// SingleClass puts every packet in one class: plain M/G/1 FIFO.
type SingleClass struct{}

// Name implements Classifier.
func (SingleClass) Name() string { return "fifo" }

// Reset implements Classifier.
func (SingleClass) Reset(rates []float64, rng *rand.Rand) {}

// Classify implements Classifier.
func (SingleClass) Classify(user int) int { return 0 }

// NumClasses implements Classifier.
func (SingleClass) NumClasses() int { return 1 }

// RankClass gives the k-th smallest-rate user priority class k: HOL strict
// priority keyed to the rate order.
type RankClass struct {
	rank []int
}

// Name implements Classifier.
func (rc *RankClass) Name() string { return "rate-priority" }

// Reset implements Classifier.
func (rc *RankClass) Reset(rates []float64, rng *rand.Rand) { rc.rank = rateRanks(rates) }

// Classify implements Classifier.
func (rc *RankClass) Classify(user int) int { return rc.rank[user] }

// NumClasses implements Classifier.
func (rc *RankClass) NumClasses() int { return len(rc.rank) }

// rateRanks returns each user's rank in the stable ascending rate order.
func rateRanks(rates []float64) []int {
	idx := make([]int, len(rates))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rates[idx[a]] < rates[idx[b]] })
	rank := make([]int, len(rates))
	for k, u := range idx {
		rank[u] = k
	}
	return rank
}

// SerialClass is the Table-1 thinning classifier: the rank-k user's
// packets are spread over classes 0..k with probabilities proportional to
// the sorted-rate increments, realizing the serial (Fair Share) allocation
// for any service distribution.  FairShareSplitter classifies through it
// too.
//
// The rank-k user's class CDF has entries acc[m]/sorted[k] for m < k and
// 1 at m = k, where acc[m] is the running sum of the increments
// sorted[j] − sorted[j−1] over j ≤ m.  acc is the same for every user, so
// only it and the sorted rates are stored (O(N) memory), and Classify
// computes each entry when its bisection probes it.
type SerialClass struct {
	sorted []float64 // rates in ascending order
	acc    []float64 // running sums of the sorted-rate increments
	rank   []int     // user → index into sorted
	rng    *rand.Rand
}

// Name implements Classifier.
func (sc *SerialClass) Name() string { return "serial-splitter" }

// Reset implements Classifier.
func (sc *SerialClass) Reset(rates []float64, rng *rand.Rand) {
	n := len(rates)
	sc.rng = rng
	sc.rank = rateRanks(rates)
	sc.sorted = make([]float64, n)
	for u, k := range sc.rank {
		sc.sorted[k] = rates[u]
	}
	sc.acc = make([]float64, n)
	prev, acc := 0.0, 0.0
	for m, r := range sc.sorted {
		acc += r - prev
		prev = r
		sc.acc[m] = acc
	}
}

// Classify implements Classifier: the first class whose CDF entry
// reaches a uniform draw.  The last entry is 1, above every draw.
func (sc *SerialClass) Classify(user int) int {
	k := sc.rank[user]
	top := sc.sorted[k]
	x := sc.rng.Float64()
	return sort.Search(k+1, func(m int) bool { return m == k || sc.acc[m]/top >= x })
}

// NumClasses implements Classifier.
func (sc *SerialClass) NumClasses() int { return len(sc.sorted) }

// GConfig parameterizes a general-service run.
type GConfig struct {
	// Rates are the per-user Poisson rates (Σ < 1 for stability).
	Rates []float64
	// Service is the unit-mean service-time distribution; default
	// exponential.
	Service randdist.Dist
	// Classify maps packets to preemptive priority classes; default
	// SingleClass (FIFO).
	Classify Classifier
	// Horizon, Warmup, Seed, Batches behave as in Config.
	Horizon, Warmup float64
	Seed            int64
	Batches         int
}

// gpacket is one job in the general-service engine.
type gpacket struct {
	user      int
	class     int
	arrive    float64
	remaining float64
}

// gpacketPool recycles gpackets across departures and arrivals so the
// steady-state event loop allocates nothing.  get overwrites every field
// at the call site; put is deliberately unannotated (its append may grow
// the free list) and is amortized against the arrival that created the
// packet.
type gpacketPool struct {
	free []*gpacket
}

func (pl *gpacketPool) get() *gpacket {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		return p
	}
	return new(gpacket)
}

func (pl *gpacketPool) put(p *gpacket) { pl.free = append(pl.free, p) }

// deque is a double-ended packet queue (resumed packets re-enter at the
// front to preserve preemptive-resume FIFO order), backed by a
// power-of-two ring so both ends are O(1) and, once the ring has reached
// its high-water size, allocation-free — the old slice deque allocated a
// fresh backing array on every pushFront.
type deque struct {
	buf  []*gpacket
	head int // ring index of the front element
	n    int
}

// grow doubles the ring; unannotated, amortized against the pushes that
// filled it.
func (d *deque) grow() {
	c := 2 * len(d.buf)
	if c == 0 {
		c = 8
	}
	nb := make([]*gpacket, c)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf = nb
	d.head = 0
}

func (d *deque) pushBack(p *gpacket) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = p
	d.n++
}

func (d *deque) pushFront(p *gpacket) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = p
	d.n++
}

func (d *deque) popFront() *gpacket {
	p := d.buf[d.head]
	d.buf[d.head] = nil // release the slot: no stale packet outlives its queue stay
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return p
}

func (d *deque) len() int { return d.n }

// classQueues is RunG's wait queue: one FIFO deque per priority class,
// lowest class first.  A preempted packet resumes at the head of its
// class, ahead of every packet that arrived after it.
type classQueues struct {
	d []deque
	n int
}

func (c *classQueues) Enqueue(p *gpacket, now float64) {
	c.d[p.class].pushBack(p)
	c.n++
}

func (c *classQueues) resume(p *gpacket) {
	c.d[p.class].pushFront(p)
	c.n++
}

// Dequeue pops the head of the lowest nonempty class; called only when
// Len() > 0.
func (c *classQueues) Dequeue(now float64) *gpacket {
	i := 0
	for c.d[i].len() == 0 {
		i++
	}
	c.n--
	return c.d[i].popFront()
}

func (c *classQueues) Len() int { return c.n }

// seedArrivals initializes the calendar and schedules each source's first
// arrival.  The first-arrival variates prefetch in one FillExp call
// (byte-identical to the historical per-source draw loop).
//
// The bucket width is derived from the event RATE, not the pending-event
// span: the engines process ≈ 2·Σλ events per unit time (arrivals at
// rate Σλ, completions at rate busy ≈ Σλ for the unit-rate server), so
// 1/(2·Σλ) keeps about one event per bucket near the cursor and about
// one bucket step per dequeue.  Pending arrivals are exponentially
// spread, so a span-derived width would be stretched by the tail —
// piling width·density events into every cursor bucket and making the
// window slide through virgin buckets (first-touch growth allocations)
// for the whole run.  With the rate-derived width the tail simply wraps
// into later calendar years, which the windowed scan is built for, and
// after one year every bucket's capacity is recycled: the steady state
// allocates nothing.  The steady population is ≈ len(rates)+1 events, so
// no rehash ever fires to re-derive the width mid-run.
func seedArrivals(events *calq.Queue, rng *rand.Rand, rates []float64, total float64) {
	n := len(rates)
	arr := make([]float64, n)
	randdist.FillExp(rng, arr)
	events.Init(n+1, 1/(2*total))
	for i, r := range rates {
		events.Enqueue(calq.Event{T: arr[i] / r, User: int32(i), Arr: true})
	}
}

// RunG simulates the general-service preemptive-priority station.
func RunG(cfg GConfig) (Result, error) {
	return RunGCtx(context.Background(), cfg)
}

// RunGCtx is RunG under a context; see RunCtx for the cancellation
// contract (typed error, no partial statistics).
func RunGCtx(ctx context.Context, cfg GConfig) (Result, error) {
	st, err := newStation(cfg.Rates, cfg.Horizon, cfg.Warmup, cfg.Batches)
	if err != nil {
		return Result{}, err
	}
	cls := cfg.Classify
	if cls == nil {
		cls = SingleClass{}
	}
	rng := randdist.NewRand(cfg.Seed)
	cls.Reset(cfg.Rates, rng)
	return runCalendar(ctx, st, cfg.Service, cls, &classQueues{d: make([]deque, cls.NumClasses())}, rng)
}
