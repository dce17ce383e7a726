package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/des"
	"greednet/internal/des/calq"
	"greednet/internal/game"
	"greednet/internal/randdist"
	"greednet/internal/utility"
)

// The compute workload is a fixed cycle of work units, each one call
// into a DES engine or a Nash solver as the reproduction makes it.
// Horizons and repeat counts size every unit but one to roughly the
// same cost on the reference host (8–14 ms), so the median describes a
// population of like items; the Proportional solve cannot be split and
// costs about five units.

// DES horizons, in simulated time units (the server has rate 1).
const (
	horizonFS100    = 3.5e4
	horizonFIFO100  = 8e4
	horizonFS1e3    = 1.4e4
	horizonFIFO1e4  = 2.5e4
	horizonSerial   = 5e4
	horizonFQ100    = 3e4
	horizonFCFS100  = 4.5e4
	horizonTandem   = 4e4
	classK8PerUnit  = 32 // K=8 class solves per unit
	fluidPerUnit    = 16
	desLoad         = 0.8 // Σr of the generated DES rate vectors
	classPopulation = 1_000_000
)

// table1Rates are the paper's Table 1 rates, run through the serial
// (Fair Share) classifier on the general-service engine.
var table1Rates = []float64{0.10, 0.15, 0.20, 0.25}

// computeOpts are the Nash options of every compute solve.
var computeOpts = game.ClassNashOptions{NashOptions: game.NashOptions{Tol: 1e-9, Damping: 0.5, MaxIter: 2000}}

// unitOut is what one unit did.
type unitOut struct {
	events int64 // DES arrivals + departures
	solves int
	rounds int // best-response rounds, summed over the unit's solves
}

// computeKind is one kind of work unit.
type computeKind struct {
	name string
	run  func(st *computeState, seed int64) (unitOut, error)
}

// desPool collects one DES configuration's total-queue samples for the
// pooled check.
type desPool struct {
	load    float64
	totals  []float64
	covered int // runs whose own interval covers g(load)
}

func (p *desPool) addRun(res des.Result) {
	p.totals = append(p.totals, res.TotalAvgQueue)
	if covers(res.TotalAvgQueue, res.QueueCI95, p.load) {
		p.covered++
	}
}

// computeState holds a run's inputs, workspaces and check accumulators.
type computeState struct {
	r100, r1e3, r1e4  []float64
	tandemLong        []float64
	tandemA, tandemB  []float64
	exactUs           core.Profile
	exactR0           []float64
	propEq            []float64 // Proportional equilibrium, the warm start of its units
	ws                *game.Workspace
	classK8, classK64 game.ClassGame
	cws               *game.ClassWorkspace
	rdst, cdst        []float64
	pools             map[string]*desPool
	tandemPoolA       *desPool
	tandemPoolB       *desPool
	checkErrs         []error
}

// genRates draws n positive rates summing to load.
func genRates(rng *rand.Rand, n int, load float64) []float64 {
	r := make([]float64, n)
	sum := 0.0
	for i := range r {
		r[i] = 0.5 + rng.Float64()
		sum += r[i]
	}
	for i := range r {
		r[i] *= load / sum
	}
	return r
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// classGame builds k linear-utility classes over n users, the shape of
// the E21 class experiments, with starting rates drawn from rng.
func classGame(rng *rand.Rand, k, n int) (game.ClassGame, error) {
	classes := make([]game.Class, k)
	for j := range classes {
		classes[j] = game.Class{
			U:     utility.NewLinear(1, 0.2+0.6*float64(j)/float64(k)),
			Rate:  0.4 / float64(n) * (0.5 + rng.Float64()),
			Count: n / k,
		}
	}
	return game.NewClassGame(classes)
}

func newComputeState(seed int64) (*computeState, error) {
	rng := rand.New(rand.NewSource(seed))
	st := &computeState{
		r100:       genRates(rng, 100, desLoad),
		r1e3:       genRates(rng, 1000, desLoad),
		r1e4:       genRates(rng, 10_000, desLoad),
		tandemLong: genRates(rng, 4, 0.35),
		tandemA:    genRates(rng, 4, 0.35),
		tandemB:    genRates(rng, 4, 0.25),
		ws:         game.NewWorkspace(),
		cws:        game.NewClassWorkspace(),
		pools:      map[string]*desPool{},
	}
	cg, err := classGame(rng, 8, 64)
	if err != nil {
		return nil, err
	}
	st.exactUs, st.exactR0 = cg.Expand()
	if st.classK8, err = classGame(rng, 8, classPopulation); err != nil {
		return nil, err
	}
	if st.classK64, err = classGame(rng, 64, classPopulation); err != nil {
		return nil, err
	}
	st.rdst, st.cdst = make([]float64, 64), make([]float64, 64)
	for _, k := range computeKinds {
		st.pools[k.name] = &desPool{}
	}
	st.pools["run_fs_n100"].load = sumOf(st.r100)
	st.pools["run_fifo_n100"].load = sumOf(st.r100)
	st.pools["run_fs_n1e3"].load = sumOf(st.r1e3)
	st.pools["run_fifo_n1e4"].load = sumOf(st.r1e4)
	st.pools["rung_serial_t1"].load = sumOf(table1Rates)
	st.pools["runsched_fcfs_n100"].load = sumOf(st.r100)
	st.tandemPoolA = &desPool{load: sumOf(st.tandemLong) + sumOf(st.tandemA)}
	st.tandemPoolB = &desPool{load: sumOf(st.tandemLong) + sumOf(st.tandemB)}
	return st, nil
}

func (st *computeState) runDES(name string, cfg des.Config) (unitOut, error) {
	res, err := des.Run(cfg)
	if err != nil {
		return unitOut{}, fmt.Errorf("%s: %w", name, err)
	}
	st.pools[name].addRun(res)
	return unitOut{events: res.Arrivals + res.Departures}, nil
}

// runSched runs the non-preemptive engine.  Only FCFS feeds the pooled
// g(Σr) check: Fair Queueing orders packets by their lengths, so it
// conserves work but not the number in system, whose mean it lowers.
func (st *computeState) runSched(name string, cfg des.SchedConfig) (unitOut, error) {
	res, err := des.RunSched(cfg)
	if err != nil {
		return unitOut{}, fmt.Errorf("%s: %w", name, err)
	}
	if p := st.pools[name]; p.load > 0 {
		p.addRun(res)
	}
	return unitOut{events: res.Arrivals + res.Departures}, nil
}

// perturbed returns r0 scaled by seeded factors in [1−spread, 1+spread).
func perturbed(r0 []float64, seed int64, spread float64, dst []float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	dst = dst[:0]
	for _, r := range r0 {
		dst = append(dst, r*(1-spread+2*spread*rng.Float64()))
	}
	return dst
}

// exact runs the per-user solver from the class game's rates, perturbed.
func (st *computeState) exact(a core.Allocation, seed int64) (unitOut, error) {
	r0 := perturbed(st.exactR0, seed, 0.5, nil)
	res, err := game.SolveNashWS(context.Background(), st.ws, a, st.exactUs, r0, computeOpts.NashOptions)
	if err != nil {
		return unitOut{}, err
	}
	if !res.Converged {
		st.checkErrs = append(st.checkErrs, fmt.Errorf("%s exact solve did not converge in %d rounds", a.Name(), res.Iters))
	} else if err := checkSums(a.Name()+" exact solve", res.R, res.C, nil); err != nil {
		st.checkErrs = append(st.checkErrs, err)
	}
	return unitOut{solves: 1, rounds: res.Iters}, nil
}

func (st *computeState) class(cg game.ClassGame, seed int64, solves int) (unitOut, error) {
	out := unitOut{solves: solves}
	r0 := make([]float64, 0, cg.K())
	counts := make([]int, cg.K())
	for j, c := range cg.Classes {
		counts[j] = c.Count
	}
	for i := range solves {
		r0 = perturbed(cg.Rates(), seed+int64(i), 0.5, r0)
		res, err := game.SolveNashClassInto(context.Background(), st.cws, alloc.FairShare{}, cg, r0, computeOpts, st.rdst[:cg.K()], st.cdst[:cg.K()])
		if err != nil {
			return out, err
		}
		out.rounds += res.Iters
		if !res.Converged {
			st.checkErrs = append(st.checkErrs, fmt.Errorf("K=%d class solve did not converge in %d rounds", cg.K(), res.Iters))
		} else if err := checkSums(fmt.Sprintf("K=%d class solve", cg.K()), res.R, res.C, counts); err != nil {
			st.checkErrs = append(st.checkErrs, err)
		}
	}
	return out, nil
}

// computeKinds is the unit cycle, in the order each round runs it.
var computeKinds = []computeKind{
	{"run_fs_n100", func(st *computeState, seed int64) (unitOut, error) {
		return st.runDES("run_fs_n100", des.Config{Rates: st.r100, Discipline: &des.FairShareSplitter{}, Horizon: horizonFS100, Seed: seed})
	}},
	{"run_fifo_n100", func(st *computeState, seed int64) (unitOut, error) {
		return st.runDES("run_fifo_n100", des.Config{Rates: st.r100, Discipline: &des.FIFO{}, Horizon: horizonFIFO100, Seed: seed})
	}},
	{"run_fs_n1e3", func(st *computeState, seed int64) (unitOut, error) {
		return st.runDES("run_fs_n1e3", des.Config{Rates: st.r1e3, Discipline: &des.FairShareSplitter{}, Horizon: horizonFS1e3, Seed: seed})
	}},
	{"run_fifo_n1e4", func(st *computeState, seed int64) (unitOut, error) {
		return st.runDES("run_fifo_n1e4", des.Config{Rates: st.r1e4, Discipline: &des.FIFO{}, Horizon: horizonFIFO1e4, Seed: seed})
	}},
	{"rung_serial_t1", func(st *computeState, seed int64) (unitOut, error) {
		res, err := des.RunG(des.GConfig{Rates: table1Rates, Classify: &des.SerialClass{}, Horizon: horizonSerial, Seed: seed})
		if err != nil {
			return unitOut{}, err
		}
		st.pools["rung_serial_t1"].addRun(res)
		return unitOut{events: res.Arrivals + res.Departures}, nil
	}},
	{"runsched_fq_n100", func(st *computeState, seed int64) (unitOut, error) {
		return st.runSched("runsched_fq_n100", des.SchedConfig{Rates: st.r100, Sched: &des.FQSched{}, Horizon: horizonFQ100, Seed: seed})
	}},
	{"runsched_fcfs_n100", func(st *computeState, seed int64) (unitOut, error) {
		return st.runSched("runsched_fcfs_n100", des.SchedConfig{Rates: st.r100, Sched: &des.FCFSSched{}, Horizon: horizonFCFS100, Seed: seed})
	}},
	{"runtandem_fs", func(st *computeState, seed int64) (unitOut, error) {
		res, err := des.RunTandem(des.TandemConfig{LongRates: st.tandemLong, CrossA: st.tandemA, CrossB: st.tandemB,
			NewDisc: func() des.Discipline { return &des.FairShareSplitter{} }, Horizon: horizonTandem, Seed: seed})
		if err != nil {
			return unitOut{}, err
		}
		st.tandemPoolA.totals = append(st.tandemPoolA.totals, sumOf(res.QueueA))
		st.tandemPoolB.totals = append(st.tandemPoolB.totals, sumOf(res.QueueB))
		// A route completion is one arrival and one departure at each
		// station it visits: long users visit both.
		var ev int64
		for i, d := range res.Departures {
			ev += 2 * d
			if i < len(st.tandemLong) {
				ev += d
			}
		}
		return unitOut{events: ev}, nil
	}},
	{"exact_fs_n64", func(st *computeState, seed int64) (unitOut, error) { return st.exact(alloc.FairShare{}, seed) }},
	// Proportional needs about three times Fair Share's rounds, each
	// costlier, so its unit is the cycle's heaviest (about 60 ms on the
	// reference host) and, at 1/13 of the units, sets the p99.
	{"exact_prop_n64", func(st *computeState, seed int64) (unitOut, error) { return st.exact(alloc.Proportional{}, seed) }},
	{"class_k8", func(st *computeState, seed int64) (unitOut, error) { return st.class(st.classK8, seed, classK8PerUnit) }},
	{"class_k64", func(st *computeState, seed int64) (unitOut, error) { return st.class(st.classK64, seed, 1) }},
	{"fluid_k8", func(st *computeState, seed int64) (unitOut, error) {
		out := unitOut{solves: fluidPerUnit}
		for range fluidPerUnit {
			res, err := game.SolveNashFluid(context.Background(), alloc.FairShare{}, st.classK8, game.ClassNashOptions{})
			if err != nil {
				return out, err
			}
			out.rounds += res.Iters
			if !res.Converged {
				st.checkErrs = append(st.checkErrs, fmt.Errorf("fluid solve did not converge in %d rounds", res.Iters))
			}
		}
		return out, nil
	}},
}

// unitSeed derives a unit's seed from the run seed, the round and the
// kind, so every unit of every round sees its own random stream.
func unitSeed(seed int64, round, kind int) int64 {
	return seed*1_000_003 + int64(round)*64 + int64(kind) + 1
}

// classExactBitEqual checks that a K = N class solve reproduces the
// per-user solver bit for bit (the class solver's summation contract).
func classExactBitEqual(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	cg, err := classGame(rng, 64, 64)
	if err != nil {
		return err
	}
	cres, err := game.SolveNashClassWS(context.Background(), nil, alloc.FairShare{}, cg, nil, computeOpts)
	if err != nil {
		return err
	}
	us, r0 := cg.Expand()
	xres, err := game.SolveNashWS(context.Background(), nil, alloc.FairShare{}, us, r0, computeOpts.NashOptions)
	if err != nil {
		return err
	}
	if cres.Iters != xres.Iters || cres.Converged != xres.Converged {
		return fmt.Errorf("K=N class solve: %d rounds (converged %v), exact %d (converged %v)", cres.Iters, cres.Converged, xres.Iters, xres.Converged)
	}
	return errors.Join(checkBits("K=N class rates vs exact", cres.R, xres.R), checkBits("K=N class congestions vs exact", cres.C, xres.C))
}

// setupCompute builds the run's inputs and workspaces, runs one unit of
// every kind to size the workspaces, and checks the K = N bit equality.
func setupCompute(seed int64) (*computeState, time.Duration, error) {
	start := time.Now()
	st, err := newComputeState(seed)
	if err != nil {
		return nil, 0, err
	}
	for k, kind := range computeKinds {
		if _, err := kind.run(st, unitSeed(seed, -1, k)); err != nil {
			return nil, 0, fmt.Errorf("warm %s: %w", kind.name, err)
		}
	}
	if err := classExactBitEqual(seed); err != nil {
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

// computeIdentityTol bounds the share of the timed loop not covered by
// unit spans: the harness's own work between units.
const computeIdentityTol = 0.02

func runCompute(cfg runConfig, rep *report) error {
	var setups []float64
	var st *computeState
	for range 3 {
		s, d, err := setupCompute(cfg.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		st = s
	}
	// The set-up runs count toward the pooled DES checks; the timing
	// does not include them.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	b := tr.buf(1 << 14)
	type kindStats struct {
		dur    []float64 // seconds per unit
		events int64
		solves int
		rounds []float64
	}
	stats := make([]kindStats, len(computeKinds))
	var lat []float64
	runtime.GC()
	heap := startHeapSampler()
	gc0, pause0 := gcStats()
	root := b.begin("batch", -1, 0)
	start := time.Now()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	rounds := 0
	for ; time.Since(start) < limit; rounds++ {
		for k, kind := range computeKinds {
			t0 := time.Now()
			out, err := kind.run(st, unitSeed(cfg.seed, rounds, k))
			t1 := time.Now()
			b.add(kind.name, root, int64(rounds), t0, t1)
			if err != nil {
				heap.finish()
				return fmt.Errorf("%s: %w", kind.name, err)
			}
			d := t1.Sub(t0).Seconds()
			lat = append(lat, d*1e3)
			ks := &stats[k]
			ks.dur = append(ks.dur, d)
			ks.events += out.events
			ks.solves += out.solves
			if out.solves > 0 {
				ks.rounds = append(ks.rounds, float64(out.rounds)/float64(out.solves))
			}
		}
	}
	wall := time.Since(start)
	b.finish(root)
	gc1, pause1 := gcStats()
	peak := heap.finish()
	units := int64(len(lat))
	rep.ops(units, 0)
	rep.note("%d rounds of %d units in %.2fs", rounds, len(computeKinds), wall.Seconds())
	for k, kind := range computeKinds {
		rep.note("unit %-20s median %.3f ms", kind.name, 1e3*median(append([]float64(nil), stats[k].dur...)))
	}

	for _, e := range st.checkErrs {
		rep.fail(e)
	}
	for _, kind := range computeKinds {
		if p := st.pools[kind.name]; len(p.totals) > 0 {
			rep.fail(checkTotalQueue(kind.name, p.totals, p.load))
		}
	}
	rep.fail(checkTotalQueue("runtandem_fs station A", st.tandemPoolA.totals, st.tandemPoolA.load))
	rep.fail(checkTotalQueue("runtandem_fs station B", st.tandemPoolB.totals, st.tandemPoolB.load))

	if !cfg.trace {
		p50, _, _ := quantile(lat, 0.50)
		p99, beyond, ok := quantile(lat, 0.99)
		if !ok {
			return fmt.Errorf("%d units leave %d beyond p99, fewer than %d", units, beyond, minBeyond)
		}
		rep.set("setup_s", "s", median(setups), len(setups))
		rep.set("p50_ms", "ms", p50, len(lat))
		rep.set("p99_ms", "ms", p99, len(lat))
		rep.set("ops_per_s", "1/s", float64(units)/wall.Seconds(), len(lat))
		rep.set("peak_heap_mb", "MB", peak, 0)
		return nil
	}

	byName := map[string]*kindStats{}
	for k, kind := range computeKinds {
		byName[kind.name] = &stats[k]
	}
	eventsPerS := func(names ...string) float64 {
		var ev int64
		var t float64
		for _, n := range names {
			ev += byName[n].events
			for _, d := range byName[n].dur {
				t += d
			}
		}
		return float64(ev) / t
	}
	perSolve := func(name string, scale float64) (float64, int) {
		ks := byName[name]
		xs := make([]float64, len(ks.dur))
		for i, d := range ks.dur {
			xs[i] = d * scale * float64(len(ks.dur)) / float64(ks.solves)
		}
		return median(xs), ks.solves
	}
	runEPS := eventsPerS("run_fs_n100", "run_fifo_n100", "run_fs_n1e3", "run_fifo_n1e4")
	rep.set("des.run.events_per_s", "1/s", runEPS, 0)
	rep.set("des.rung.events_per_s", "1/s", eventsPerS("rung_serial_t1"), 0)
	fq, fcfs := eventsPerS("runsched_fq_n100"), eventsPerS("runsched_fcfs_n100")
	rep.set("des.runsched_fq.events_per_s", "1/s", fq, 0)
	rep.set("des.runsched_fcfs.events_per_s", "1/s", fcfs, 0)
	rep.set("des.fq_over_fcfs", "ratio", fcfs/fq, 0)
	rep.set("des.runtandem.events_per_s", "1/s", eventsPerS("runtandem_fs"), 0)
	covered, ran := 0, 0
	for _, p := range st.pools {
		covered += p.covered
		ran += len(p.totals)
	}
	rep.set("des.ci_cover_frac", "frac", float64(covered)/float64(ran), ran)

	v, n := perSolve("exact_fs_n64", 1e3)
	rep.set("game.exact.solve_ms", "ms", v, n)
	rep.set("game.exact.rounds", "count", median(byName["exact_fs_n64"].rounds), n)
	rep.set("game.exact.round_us", "us", v*1e3/median(byName["exact_fs_n64"].rounds), n)
	v, n = perSolve("class_k8", 1e6)
	rep.set("game.class.k8.solve_us", "us", v, n)
	rep.set("game.class.k8.rounds", "count", median(byName["class_k8"].rounds), n)
	v, n = perSolve("class_k64", 1e6)
	rep.set("game.class.k64.solve_us", "us", v, n)
	rep.set("game.class.k64.rounds", "count", median(byName["class_k64"].rounds), n)
	v, n = perSolve("fluid_k8", 1e6)
	rep.set("game.fluid.solve_us", "us", v, n)

	rep.set("gc.cycles", "count", float64(gc1-gc0), 0)
	rep.set("gc.pause_ms", "ms", float64(pause1-pause0)/1e6, 0)
	covers := 0.0
	for _, ks := range stats {
		for _, d := range ks.dur {
			covers += d
		}
	}
	resid := 1 - covers/wall.Seconds()
	rep.set("trace.identity_resid_frac", "frac", resid, int(units))
	if resid > computeIdentityTol || resid < 0 {
		rep.fail(fmt.Errorf("accounting identity: unit spans cover %.2f%% of the %.2fs loop (tolerance %.0f%%)", 100*covers/wall.Seconds(), wall.Seconds(), 100*computeIdentityTol))
	}
	rep.set("trace.overhead_frac", "frac", float64(tr.count())*spanCost()/wall.Seconds(), tr.count())

	if err := computeProbes(st, cfg.seed, rep); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("compute-seed%d.spans.jsonl", cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}

// computeProbes measures the per-layer costs the unit spans cannot
// separate: allocations per event and per solve, and the per-operation
// cost of the calendar queue, the variate batch, the Fair Share
// splitter and the Fair Share congestion map.
func computeProbes(st *computeState, seed int64, rep *report) error {
	allocsPer := func(kind int, per func(unitOut) float64) (float64, error) {
		a0 := allocCount()
		out, err := computeKinds[kind].run(st, unitSeed(seed, -2, kind))
		a1 := allocCount()
		if err != nil {
			return 0, err
		}
		return float64(a1-a0) / per(out), nil
	}
	perEvent := func(o unitOut) float64 { return float64(o.events) }
	perSolve := func(o unitOut) float64 { return float64(o.solves) }
	for _, p := range []struct {
		metric string
		kind   string
		per    func(unitOut) float64
	}{
		{"des.run.allocs_per_event", "run_fs_n100", perEvent},
		{"des.runsched_fq.allocs_per_event", "runsched_fq_n100", perEvent},
		{"game.exact.allocs_per_solve", "exact_fs_n64", perSolve},
		{"game.class.allocs_per_solve", "class_k8", perSolve},
	} {
		for k, kind := range computeKinds {
			if kind.name == p.kind {
				v, err := allocsPer(k, p.per)
				if err != nil {
					return err
				}
				rep.set(p.metric, "count", v, 0)
			}
		}
	}
	rep.set("alloc.fairshare.congestion_n64_ns", "ns", congestionProbe(64), 0)
	rep.set("alloc.fairshare.congestion_n1e4_ns", "ns", congestionProbe(10_000), 0)
	rep.set("calq.op_ns", "ns", calqProbe(len(st.r100)+1), 0)
	rep.set("randdist.pair_ns", "ns", pairProbe(seed), 0)
	rep.set("des.disc.fairshare.op_ns", "ns", fairShareProbe(st.r100, seed), 0)
	return nil
}

// calqProbe times one Enqueue plus one DequeueMin on a calendar queue
// holding pending events, the hold model of a DES run with that many
// scheduled events: each popped event is rescheduled an exponential
// time later.  ns per pair, median of five batches.
func calqProbe(pending int) float64 {
	rng := rand.New(rand.NewSource(int64(pending)))
	const meanGap = 1 / (2 * desLoad)
	var q calq.Queue
	q.Init(pending, meanGap)
	for i := range pending {
		q.Enqueue(calq.Event{T: rng.ExpFloat64() * meanGap * float64(pending), User: int32(i)})
	}
	const n = 200_000
	var per []float64
	for range 5 {
		t0 := time.Now()
		for range n {
			ev, _ := q.DequeueMin()
			ev.T += rng.ExpFloat64() * meanGap * float64(pending)
			q.Enqueue(ev)
		}
		per = append(per, float64(time.Since(t0))/n)
	}
	return median(per)
}

// pairProbe times randdist.PairBatch.Pair, ns per pair.
func pairProbe(seed int64) float64 {
	var b randdist.PairBatch
	b.Init(rand.New(rand.NewSource(seed)), randdist.BlockSize(true))
	const n = 1_000_000
	var per []float64
	s := 0.0
	for range 5 {
		t0 := time.Now()
		for range n {
			e, u := b.Pair()
			s += e + u
		}
		per = append(per, float64(time.Since(t0))/n)
	}
	if s < 0 {
		return 0
	}
	return median(per)
}

// fairShareProbe times one Enqueue plus one Dequeue on the Fair Share
// splitter with a standing queue of ten packets over the n=100 rates.
func fairShareProbe(rates []float64, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var f des.FairShareSplitter
	f.Reset(rates, rng)
	for i := range 10 {
		f.Enqueue(des.Packet{User: i, Arrive: float64(i)})
	}
	const n = 500_000
	var per []float64
	for range 5 {
		t0 := time.Now()
		for i := range n {
			f.Enqueue(des.Packet{User: i % len(rates), Arrive: float64(i)})
			f.Dequeue()
		}
		per = append(per, float64(time.Since(t0))/n)
	}
	return median(per)
}
