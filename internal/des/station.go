package des

import (
	"context"
	"math"
	"math/rand"

	"greednet/internal/des/calq"
	"greednet/internal/randdist"
	"greednet/internal/stats"
)

// The engine skeleton.  Every engine validates its configuration through
// the normaliser below (addRates + newWindow); the three single-station
// engines — Run's CTMC loop and the calendar loop that RunG and RunSched
// share — do their bookkeeping through one tally.  RunTandem keeps its
// own eager per-station accumulators, because lazy accumulation would
// change its bits against its frozen reference, and shares only the
// normaliser.

// addRates adds rates to acc left to right — the summation order every
// engine's stability check and source-pick tables use — and reports
// false on a nonpositive or NaN rate.
func addRates(acc float64, rates []float64) (float64, bool) {
	for _, r := range rates {
		if r <= 0 || math.IsNaN(r) {
			return 0, false
		}
		acc += r
	}
	return acc, true
}

// validSpan reports whether a Horizon/Warmup value is usable: NaN and
// ±Inf would silently poison every time average (yielding all-NaN
// statistics with a nil error), so they are rejected up front; negative
// and zero values remain "use the default".
func validSpan(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// window is a validated run window: warmup, then horizon of measurement
// ending at end, split into batches batch-means segments of batchLen.
type window struct {
	warmup, horizon, end, batchLen float64
	batches                        int
}

// newWindow validates the spans and applies the defaults: Horizon 2e5,
// Warmup 5% of Horizon, 20 batches.
func newWindow(horizon, warmup float64, batches int) (window, error) {
	if !validSpan(horizon) || !validSpan(warmup) {
		return window{}, ErrBadConfig
	}
	if horizon <= 0 {
		horizon = 2e5
	}
	if warmup <= 0 {
		warmup = 0.05 * horizon
	}
	if batches <= 0 {
		batches = 20
	}
	return window{
		warmup:   warmup,
		horizon:  horizon,
		end:      warmup + horizon,
		batchLen: horizon / float64(batches),
		batches:  batches,
	}, nil
}

// station is a validated single-station run: nonempty rates with a
// stable total Σr < 1, and its window.
type station struct {
	rates []float64
	total float64
	window
}

func newStation(rates []float64, horizon, warmup float64, batches int) (station, error) {
	total, ok := addRates(0, rates)
	if len(rates) == 0 || !ok || total >= 1 {
		return station{}, ErrBadConfig
	}
	w, err := newWindow(horizon, warmup, batches)
	if err != nil {
		return station{}, err
	}
	return station{rates: rates, total: total, window: w}, nil
}

// tally is a single-station run's accounting: the lazy per-user queues,
// the total-queue time average, per-user delay sums, and the post-warmup
// arrival and departure counts.
type tally struct {
	window
	lq       *lazyQueues
	total    stats.TimeAverage
	delaySum []float64
	departed []int64
	inSystem int
	arrivals int64
	departs  int64
}

func newTally(n int, w window) *tally {
	return &tally{
		window:   w,
		lq:       newLazyQueues(n, w.batches, w.warmup, w.end, w.batchLen),
		delaySum: make([]float64, n),
		departed: make([]int64, n),
	}
}

// hold accumulates the current total queue over [from, to] clipped to
// the measurement window.  Only this O(1) average advances per event;
// the per-user integrals advance lazily at count changes.  Times are
// nonnegative and the window bounds positive, so the plain compares clip
// exactly as math.Max and math.Min would.
//
//lint:hotpath
func (a *tally) hold(from, to float64) {
	if from < a.warmup {
		from = a.warmup
	}
	if to > a.end {
		to = a.end
	}
	if to > from {
		a.total.Accumulate(float64(a.inSystem), to-from)
	}
}

// arrive records a user-u arrival at t.
//
//lint:hotpath
func (a *tally) arrive(u int, t float64) {
	a.lq.bump(u, t, 1)
	a.inSystem++
	if t >= a.warmup {
		a.arrivals++
	}
}

// depart records the departure at t of a user-u packet that arrived at
// arrive, reporting whether it falls in the measurement window.
//
//lint:hotpath
func (a *tally) depart(u int, t, arrive float64) bool {
	a.lq.bump(u, t, -1)
	a.inSystem--
	if t < a.warmup {
		return false
	}
	a.departs++
	a.departed[u]++
	a.delaySum[u] += t - arrive
	return true
}

// result closes the per-user segments and assembles the run's Result.
func (a *tally) result() Result {
	a.lq.finish()
	n := len(a.departed)
	res := Result{
		AvgQueue:      make([]float64, n),
		QueueCI95:     make([]float64, n),
		AvgDelay:      make([]float64, n),
		Throughput:    make([]float64, n),
		TotalAvgQueue: a.total.Value(),
		Arrivals:      a.arrivals,
		Departures:    a.departs,
		Duration:      a.horizon,
	}
	for i := 0; i < n; i++ {
		res.AvgQueue[i] = a.lq.avgQueue(i)
		res.QueueCI95[i] = batchCI(a.lq.batchRow(i), a.batchLen)
		if a.departed[i] > 0 {
			res.AvgDelay[i] = a.delaySum[i] / float64(a.departed[i])
		} else {
			res.AvgDelay[i] = math.NaN()
		}
		res.Throughput[i] = float64(a.departed[i]) / a.horizon
	}
	return res
}

// batchCI converts per-batch queue integrals into a 95% half-width for the
// run-level time average.
func batchCI(integrals []float64, batchLen float64) float64 {
	means := make([]float64, len(integrals))
	for i, v := range integrals {
		means[i] = v / batchLen
	}
	return stats.CI95(means)
}

// waitQueue holds the packets waiting behind the calendar loop's server.
// Every Scheduler is one; RunG's classQueues is the other.
type waitQueue interface {
	Enqueue(p *gpacket, now float64)
	Dequeue(now float64) *gpacket
	Len() int
}

// runCalendar is the event loop RunG and RunSched share: Poisson sources
// on the calendar queue, a unit-rate server transmitting one packet at a
// time, and q holding the rest.  An arrival whose class is below the
// serving packet's preempts it, and the preempted packet resumes at the
// head of its class.  Only RunG's classQueues can see that happen:
// RunSched runs with SingleClass, so every packet is in class 0 and the
// Scheduler's order alone decides.  The caller has Reset the classifier
// and the queue on rng.
//
// After seeding, every rng draw is an inter-arrival or service
// ExpFloat64 unless the classifier consumes the stream too (Schedulers
// have no rng access); when the order is provably pure-exponential the
// batch prefetches full blocks and service draws come from the same
// batch, otherwise block size 1 reproduces the unbatched stream draw for
// draw.
func runCalendar(ctx context.Context, st station, service randdist.Dist, classify Classifier, q waitQueue, rng *rand.Rand) (Result, error) {
	if service == nil {
		service = randdist.Exponential{}
	}
	a := newTally(len(st.rates), st.window)
	pureExp := randdist.IsExponential(service) && streamFree(classify)
	var eb randdist.ExpBatch
	eb.Init(rng, randdist.BlockSize(pureExp))

	var events calq.Queue
	seedArrivals(&events, rng, st.rates, st.total)

	var pool gpacketPool
	var serving *gpacket
	token := 0         // the serving packet's completion token
	compT := 0.0       // its scheduled completion time
	var compSeq uint64 // and calendar stamp, for O(1) preemption removal
	start := func(p *gpacket, now float64) {
		serving = p
		token++
		compT = now + p.remaining
		compSeq = events.Enqueue(calq.Event{T: compT, Token: token})
	}

	prev := 0.0
	gate := ctxGate{ctx: ctx}
	for events.Len() > 0 {
		if err := gate.Err(); err != nil {
			return Result{}, err
		}
		ev, _ := events.DequeueMin()
		a.hold(prev, ev.T)
		if ev.T > st.end {
			break
		}
		prev = ev.T
		if ev.Arr {
			u := int(ev.User)
			events.Enqueue(calq.Event{T: ev.T + eb.Next()/st.rates[u], User: ev.User, Arr: true})
			p := pool.get()
			p.user = u
			p.class = classify.Classify(u)
			p.arrive = ev.T
			if pureExp {
				p.remaining = eb.Next()
			} else {
				p.remaining = service.Sample(rng)
			}
			a.arrive(u, ev.T)
			switch {
			case serving == nil:
				start(p, ev.T)
			case p.class < serving.class:
				// Preempt: bank the remaining work and cancel the pending
				// completion by its (time, stamp) — a direct calendar
				// removal.
				rem := compT - ev.T
				if rem < 0 {
					rem = 0
				}
				serving.remaining = rem
				events.Remove(compT, compSeq)
				q.(*classQueues).resume(serving)
				start(p, ev.T)
			default:
				q.Enqueue(p, ev.T)
			}
		} else if ev.Token == token {
			// The serving packet completes.  A preempted service's
			// completion left the calendar at preemption; the token
			// check would skip it all the same.
			a.depart(serving.user, ev.T, serving.arrive)
			pool.put(serving)
			serving = nil
			if q.Len() > 0 {
				start(q.Dequeue(ev.T), ev.T)
			}
		}
	}
	return a.result(), nil
}
