package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"greednet/internal/alloc"
	"greednet/internal/cliutil"
	"greednet/internal/core"
	"greednet/internal/game"
	"greednet/internal/profkey"
	"greednet/internal/service"
)

func runGreeddSolve(cfg runConfig, rep *report) error { return runGreedd(&greeddSolveWL, cfg, rep) }

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// identityTol bounds trace.identity_resid_frac: the share of the miss
// spans' total that the replayed children may overrun their parent by.
// The replay runs after the phase, and on the reference VM the host's
// CPU speed drifts by up to ±30% from one second to the next (a fixed
// 50 ms loop measured 28–71 ms), so the tolerance admits that drift and
// still catches a replay that does different work from the server.
const identityTol = 0.25

func runGreedd(w *greeddWorkload, cfg runConfig, rep *report) (err error) {
	var setups []float64
	var in *instance
	for i := range setupReps {
		x, d, err := setupGreedd(cfg.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			if err := x.close(); err != nil {
				return fmt.Errorf("set-up: close: %w", err)
			}
			continue
		}
		in = x
	}
	defer func() { err = errors.Join(err, in.close()) }()

	sched := makeSchedule(rand.New(rand.NewSource(cfg.seed)), w.nominal, w.nominalOps, in.rungs)
	if err := validateBuckets(sched, serviceOptions()); err != nil {
		return err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st0, err := in.stats()
	if err != nil {
		return err
	}
	runtime.GC()
	start := time.Now()
	cpu0 := processCPU()
	heap := startHeapSampler()
	gc0, pause0 := gcStats()
	ph := in.drive(sched, tr, 0)
	gc1, pause1 := gcStats()
	peak := heap.finish()
	cpuPerOp := (processCPU() - cpu0).Seconds() / float64(max(ph.sent, 1))
	st1, err := in.stats()
	if err != nil {
		return err
	}
	rep.ops(ph.sent, ph.failed)
	if e := ph.err(); e != nil {
		rep.fail(fmt.Errorf("nominal phase: %w", e))
	}
	s := summarize(ph)
	if !s.p99ok {
		return fmt.Errorf("nominal phase: %d samples leave fewer than %d beyond p99", s.n, minBeyond)
	}
	rep.note("nominal %.0f ops/s: %d ops in %.2fs, late p99 %.3fms, outstanding max %d, %.3fms CPU per op",
		w.nominal, s.n, ph.wall.Seconds(), s.lateP99, s.outstanding, 1e3*cpuPerOp)

	if !cfg.trace {
		nominalMet, why := met(ph, s, w.limit)
		rep.note("nominal rate meets the %v p99 limit: %v (%s)", w.limit, nominalMet, why)
		deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
		okRate, err := in.search(w, cfg.seed, nominalMet, float64(runtime.GOMAXPROCS(0))/cpuPerOp, deadline, rep)
		if err != nil {
			return err
		}
		rep.set("setup_s", "s", median(setups), len(setups))
		rep.set("p50_ms", "ms", s.p50, s.n)
		rep.set("p99_ms", "ms", s.p99, s.n)
		rep.set("ops_per_s", "1/s", okRate, 0)
		rep.set("peak_heap_mb", "MB", peak, 0)
		return nil
	}

	// Traced run: per-layer figures from the spans, the stats deltas
	// and the replay.
	pctSpans := func(name, metricName string, q float64) {
		xs := tr.durations(name)
		for i := range xs {
			xs[i] *= 1e3
		}
		if v, _, ok := quantile(xs, q); ok {
			rep.set(metricName, "ms", v, len(xs))
		} else {
			rep.note("%s withheld: %d samples", metricName, len(xs))
		}
	}
	pctSpans("congestion", "service.congestion.p50_ms", 0.50)
	pctSpans("congestion", "service.congestion.p99_ms", 0.99)
	rep.set("gen.late_p99_ms", "ms", s.lateP99, s.n)
	rep.set("gen.outstanding_max", "count", float64(s.outstanding), s.n)
	rep.set("gc.cycles", "count", float64(gc1-gc0), 0)
	rep.set("gc.pause_ms", "ms", float64(pause1-pause0)/1e6, 0)
	solves := float64(st1.Solves - st0.Solves)
	frac := func(x int64) float64 {
		if solves == 0 {
			return 0
		}
		return float64(x) / solves
	}
	rep.set("service.solves_run", "count", float64(st1.SolvesRun-st0.SolvesRun), 0)
	rep.set("service.cache_hit_frac", "frac", frac(st1.CacheHits-st0.CacheHits), int(solves))
	rep.set("service.class_cache_hit_frac", "frac", frac(st1.ClassCacheHits-st0.ClassCacheHits), int(solves))
	rep.set("service.coalesced_frac", "frac", frac(st1.Coalesced-st0.Coalesced), int(solves))
	rep.set("service.queue_max", "count", float64(st1.QueueMax), 0)
	rep.set("service.shed.overload", "count", float64(st1.ShedOverload-st0.ShedOverload), 0)
	rep.set("service.shed.deadline", "count", float64(st1.ShedDeadline-st0.ShedDeadline), 0)
	rep.set("service.shed.admission", "count", float64(st1.RejectedAdmission-st0.RejectedAdmission), 0)

	pctSpans("update", "service.update.p50_ms", 0.50)
	hitP50, err := in.hitProbe(rep)
	if err != nil {
		return err
	}
	if err := replayMisses(ph.misses, hitP50, tr.buf(4*len(ph.misses)), rep); err != nil {
		return err
	}
	rep.set("api.update_decode_us", "us", updateDecodeProbe(sched), len(sched))
	rep.set("alloc.fairshare.congestion_n64_ns", "ns", congestionProbe(64), 0)

	opTime := 0.0
	for _, d := range tr.durations("op") {
		opTime += d
	}
	rep.set("trace.overhead_frac", "frac", float64(tr.count())*spanCost()/opTime, tr.count())
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}

// hitProbe times solves of the unchanged profile after the phase: the
// hit path of the same server, the base service.wait_ms subtracts.
func (in *instance) hitProbe(rep *report) (float64, error) {
	const n = 200
	var ms []float64
	var buf []byte
	for i := range n {
		t0 := time.Now()
		code, err := in.conns[0].do("POST", "/v1/solve", solveBodies[i%population], &buf)
		d := time.Since(t0)
		if err != nil || code != 200 {
			return 0, fmt.Errorf("hit probe: HTTP %d: %v", code, err)
		}
		var resp service.SolveResponse
		if err := json.Unmarshal(buf, &resp); err != nil {
			return 0, err
		}
		if i > 0 && !resp.Cached {
			rep.fail(errors.New("hit probe: unchanged profile not served from the cache"))
		}
		if i > 0 {
			ms = append(ms, float64(d)/1e6)
		}
	}
	v := median(ms)
	rep.set("service.solve_hit.p50_ms", "ms", v, len(ms))
	return v, nil
}

// parseKey inverts profkey.PerUser: "id=hexrate:spec;" per client.
func parseKey(key string) (ids []string, rates []float64, specs []string, err error) {
	for _, ent := range strings.Split(strings.TrimSuffix(key, ";"), ";") {
		id, rest, ok1 := strings.Cut(ent, "=")
		hex, spec, ok2 := strings.Cut(rest, ":")
		if !ok1 || !ok2 {
			return nil, nil, nil, fmt.Errorf("profile key entry %q", ent)
		}
		r, perr := strconv.ParseFloat(hex, 64)
		if perr != nil {
			return nil, nil, nil, fmt.Errorf("profile key rate %q: %w", hex, perr)
		}
		ids, rates, specs = append(ids, id), append(rates, r), append(specs, spec)
	}
	return ids, rates, specs, nil
}

// replayMisses re-runs every solve that ran the solver during the phase
// through the layers greedd calls on that path — profkey.PerUser,
// game.SolveNashWS and the JSON encoder — with the request's span as
// cause, checks the server's answer bit for bit, and splits the
// request's time into the replayed layers and the service's own time.
func replayMisses(misses []missRec, hitP50 float64, rb *spanBuf, rep *report) error {
	if len(misses) == 0 {
		return errors.New("replay: the phase ran no solves")
	}
	opt := serviceOptions().Nash
	ws := game.NewWorkspace()
	utils := map[string]core.Utility{}
	var solveMS, rounds, roundUS, keyUS, classUS, encUS, waitMS, brUS []float64
	var allocs uint64
	var spans, children []float64
	var enc bytes.Buffer
	for mi, m := range misses {
		ids, rates, specs, err := parseKey(m.resp.Key)
		if err != nil {
			return err
		}
		us := make(core.Profile, len(ids))
		for i, sp := range specs {
			u, ok := utils[sp]
			if !ok {
				if u, err = cliutil.ParseUtility(sp); err != nil {
					return err
				}
				utils[sp] = u
			}
			us[i] = u
		}
		t0 := time.Now()
		key := profkey.PerUser(ids, rates, specs)
		t1 := time.Now()
		rb.add("replay.key", m.span, m.req, t0, t1)
		if key != m.resp.Key {
			rep.fail(fmt.Errorf("replay: profkey.PerUser gives %q for the server's %q", key, m.resp.Key))
		}
		a0 := allocCount()
		t2 := time.Now()
		nr, err := game.SolveNashWS(context.Background(), ws, alloc.FairShare{}, us, rates, opt)
		t3 := time.Now()
		allocs += allocCount() - a0
		rb.add("replay.solve", m.span, m.req, t2, t3)
		if err != nil {
			return fmt.Errorf("replay solve: %w", err)
		}
		rep.fail(errors.Join(checkBits("replayed rates", m.resp.R, nr.R), checkBits("replayed congestions", m.resp.C, nr.C)))
		if nr.Iters != m.resp.Iters || nr.Converged != m.resp.Converged {
			rep.fail(fmt.Errorf("replay: %d rounds (converged %v), server %d (converged %v)", nr.Iters, nr.Converged, m.resp.Iters, m.resp.Converged))
		}
		enc.Reset()
		t4 := time.Now()
		err = json.NewEncoder(&enc).Encode(service.SolveResponse{Key: key, Converged: nr.Converged, Iters: nr.Iters, Clients: ids, R: nr.R, C: nr.C})
		t5 := time.Now()
		rb.add("replay.encode", m.span, m.req, t4, t5)
		if err != nil {
			return err
		}
		t6 := time.Now()
		_ = profkey.ClassKey(specs, rates)
		classUS = append(classUS, float64(time.Since(t6))/1e3)

		solve := t3.Sub(t2).Seconds()
		span := m.dur.Seconds()
		spans = append(spans, span)
		children = append(children, t1.Sub(t0).Seconds()+solve+t5.Sub(t4).Seconds())
		solveMS = append(solveMS, solve*1e3)
		rounds = append(rounds, float64(nr.Iters))
		roundUS = append(roundUS, solve*1e6/float64(max(nr.Iters, 1)))
		keyUS = append(keyUS, t1.Sub(t0).Seconds()*1e6)
		encUS = append(encUS, t5.Sub(t4).Seconds()*1e6)
		waitMS = append(waitMS, (span-solve)*1e3-hitP50)
		if mi < 20 {
			brUS = append(brUS, bestResponseProbe(us, nr.R)...)
		}
	}
	n := len(misses)
	p50, _, _ := quantile(append([]float64(nil), waitMS...), 0.5)
	rep.set("service.wait_ms", "ms", p50, n)
	var missMS []float64
	for _, m := range misses {
		missMS = append(missMS, float64(m.dur)/1e6)
	}
	v, _, _ := quantile(missMS, 0.5)
	rep.set("service.solve_miss.p50_ms", "ms", v, n)
	if v, _, ok := quantile(missMS, 0.99); ok {
		rep.set("service.solve_miss.p99_ms", "ms", v, n)
	} else {
		rep.note("service.solve_miss.p99_ms withheld: %d samples", n)
	}
	rep.set("game.exact.solve_ms", "ms", median(solveMS), n)
	rep.set("game.exact.rounds", "count", median(rounds), n)
	rep.set("game.exact.round_us", "us", median(roundUS), n)
	rep.set("game.exact.allocs_per_solve", "count", float64(allocs)/float64(n), n)
	rep.set("game.br.call_us", "us", median(brUS), len(brUS))
	rep.set("profkey.peruser_us", "us", median(keyUS), n)
	rep.set("profkey.classkey_us", "us", median(classUS), n)
	rep.set("api.solve_encode_us", "us", median(encUS), n)
	frac := overrun(spans, children)
	rep.set("trace.identity_resid_frac", "frac", frac, n)
	if frac > identityTol {
		rep.fail(fmt.Errorf("accounting identity: replayed key+solve+encode overrun their request spans by %.1f%% of the span total (tolerance %.0f%%)", 100*frac, 100*identityTol))
	}
	return nil
}

// bestResponseProbe times one best-response call per user at the
// equilibrium r, in microseconds.
func bestResponseProbe(us core.Profile, r []float64) []float64 {
	ws := game.NewWorkspace()
	out := make([]float64, len(us))
	for i := range us {
		t0 := time.Now()
		game.BestResponseWS(ws, alloc.FairShare{}, us[i], r, i, game.BROptions{})
		out[i] = float64(time.Since(t0)) / 1e3
	}
	return out
}

// updateDecodeProbe times decoding the schedule's update bodies the way
// the service's handler does, in microseconds per body.
func updateDecodeProbe(sched []op) float64 {
	const n = 5000
	start := time.Now()
	for i := range n {
		var req service.UpdateRequest
		dec := json.NewDecoder(bytes.NewReader(sched[i%len(sched)].update))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return 0
		}
	}
	return float64(time.Since(start)) / 1e3 / n
}

// congestionProbe times alloc.FairShare.CongestionInto at n users with a
// reused workspace, in ns per call (median of five timed batches).
func congestionProbe(n int) float64 {
	rng := rand.New(rand.NewSource(int64(n)))
	r := make([]float64, n)
	for i := range r {
		r[i] = (0.5 + rng.Float64()) * 0.8 / float64(n)
	}
	dst := make([]float64, n)
	ws := &core.Workspace{}
	fs := alloc.FairShare{}
	reps := max(1, 2_000_000/n)
	var per []float64
	for range 5 {
		t0 := time.Now()
		for range reps {
			fs.CongestionInto(ws, dst, r)
		}
		per = append(per, float64(time.Since(t0))/float64(reps))
	}
	return median(per)
}
