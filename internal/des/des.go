// Package des is a discrete-event simulator for the paper's switch model: a
// single exponential server of rate 1 fed by independent Poisson sources.
//
// Because service requirements are exponential and preemption is allowed,
// the system is a continuous-time Markov chain whatever the (work-
// conserving, non-anticipating) discipline does: the state advances with a
// single exponential clock of rate Σλ + 1{busy}, and disciplines differ
// only in WHICH queued packet completes at a departure epoch.  The event
// loop below exploits this, so the simulation is exact, not an
// approximation — sampling noise is the only error source, which is what
// makes the DES a sharp validator for the analytic allocation functions
// (Table 1 in particular).
package des

import (
	"context"
	"errors"
	"math/rand"

	"greednet/internal/randdist"
)

// Packet is one queued job.
type Packet struct {
	// User is the source index.
	User int
	// Arrive is the arrival timestamp.
	Arrive float64
	// Class is the priority class assigned at arrival (used by priority
	// disciplines; 0 otherwise).
	Class int
}

// Discipline picks which packet the (memoryless) server completes at each
// departure epoch.  Implementations are single-goroutine; the Simulator
// drives them sequentially.
type Discipline interface {
	// Name identifies the discipline.
	Name() string
	// Reset prepares for a fresh run with the given source rates.  The rng
	// is owned by the simulator and shared for the whole run.
	Reset(rates []float64, rng *rand.Rand)
	// Enqueue admits an arriving packet.
	Enqueue(p Packet)
	// Dequeue removes and returns the packet the server completes now.
	// It is called only when Len() > 0.
	Dequeue() Packet
	// Len reports the number of queued packets.
	Len() int
}

// Config parameterizes a simulation run.
type Config struct {
	// Rates are the per-user Poisson arrival rates; the server has rate 1,
	// so Σ Rates < 1 is required for stability.
	Rates []float64
	// Discipline is the service discipline under test.
	Discipline Discipline
	// Horizon is the simulated time after warmup; default 2e5.
	Horizon float64
	// Warmup is the initial period excluded from statistics; default 5%
	// of Horizon.
	Warmup float64
	// Seed seeds the run's random source.
	Seed int64
	// Batches is the number of batch-means segments for confidence
	// intervals; default 20.
	Batches int
	// OnDeparture, when non-nil, is invoked for every post-warmup
	// departure with the departing packet and the departure time (e.g. a
	// Tracer's Observe method).
	OnDeparture func(p Packet, depart float64)
}

// Result carries the measured per-user statistics.
type Result struct {
	// AvgQueue is the time-averaged number of user-i packets in the system
	// — the paper's congestion c_i.
	AvgQueue []float64
	// QueueCI95 is the batch-means 95% half-width for AvgQueue.
	QueueCI95 []float64
	// AvgDelay is the mean sojourn time of departed user-i packets.
	AvgDelay []float64
	// Throughput is the measured departure rate of user i.
	Throughput []float64
	// TotalAvgQueue is the time-averaged total queue (should match
	// g(Σr) = Σr/(1−Σr) for any work-conserving discipline).
	TotalAvgQueue float64
	// Arrivals and Departures count post-warmup events.
	Arrivals, Departures int64
	// Duration is the measured (post-warmup) time span.
	Duration float64
}

// ErrBadConfig reports an unusable configuration.
var ErrBadConfig = errors.New("des: bad config")

// Run simulates the switch and returns the measured statistics.
func Run(cfg Config) (Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run under a context, polled every few thousand events (see
// ctxGate).  A canceled run returns a zero Result with the typed
// core.ErrCanceled / core.ErrDeadline: partial time averages from a
// truncated horizon are not unbiased estimates, so none are reported.
func RunCtx(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Discipline == nil {
		return Result{}, ErrBadConfig
	}
	st, err := newStation(cfg.Rates, cfg.Horizon, cfg.Warmup, cfg.Batches)
	if err != nil {
		return Result{}, err
	}
	rng := randdist.NewRand(cfg.Seed)
	d := cfg.Discipline
	d.Reset(cfg.Rates, rng)
	a := newTally(len(cfg.Rates), st.window)
	cum := cumRates(cfg.Rates) // prefix sums for O(log N) source picks

	// Each iteration consumes exactly one (ExpFloat64, Float64) pair: the
	// holding time and the event pick.  A stream-free discipline never
	// touches the rng mid-run, so the pairs prefetch in full blocks;
	// otherwise block size 1 lands every draw at its unbatched stream
	// position.  Either way the run is byte-identical to the historical
	// draw-per-event loop (the final pair's uniform may be drawn past the
	// break, but the rng is per-run, so nothing can observe it).
	var pb randdist.PairBatch
	pb.Init(rng, randdist.BlockSize(streamFree(d)))

	t := 0.0
	gate := ctxGate{ctx: ctx}
	for t < st.end {
		if err := gate.Err(); err != nil {
			return Result{}, err
		}
		rate := st.total
		if a.inSystem > 0 {
			rate += 1
		}
		e, uu := pb.Pair()
		tNext := t + e/rate
		a.hold(t, tNext)
		t = tNext
		if t >= st.end {
			break
		}
		// Choose the event type.
		u := uu * rate
		if u < st.total {
			// Arrival: pick the source by binary search on the rate prefix
			// sums (the same source the linear scan chose for this draw).
			i := pickSource(cum, u)
			d.Enqueue(Packet{User: i, Arrive: t})
			a.arrive(i, t)
		} else if a.inSystem > 0 {
			p := d.Dequeue()
			if a.depart(p.User, t, p.Arrive) && cfg.OnDeparture != nil {
				cfg.OnDeparture(p, t)
			}
		}
	}
	return a.result(), nil
}
