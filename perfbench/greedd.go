package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"greednet/internal/game"
	"greednet/internal/service"
)

// greeddWorkload fixes the greedd traffic.  An operation is one control
// step of the paper's loop: POST /v1/update, POST /v1/solve, GET
// /v1/congestion.  The nominal rate and the p99 limit were chosen from
// the calibration runs recorded in calibration.json; they are constants
// so both sides of a comparison offer identical load.
type greeddWorkload struct {
	name string
	// nominal is the offered rate, operations per second, at which
	// p50_ms and p99_ms are measured.
	nominal float64
	// nominalOps is the number of operations offered at that rate.
	nominalOps int
	// limit is the p99 latency an offered rate must meet to count
	// toward ops_per_s.
	limit time.Duration
	// stepOps is the least number of operations one rate step offers,
	// so every step's p99 has at least minBeyond samples beyond it.
	stepOps int
	// minStep is the shortest rate step.
	minStep time.Duration
}

var greeddSolveWL = greeddWorkload{
	name:    "greedd-solve",
	nominal: 100, nominalOps: 3000, limit: 50 * time.Millisecond,
	stepOps: 1000, minStep: 2500 * time.Millisecond,
}

// The client population: 64 clients over four utility families, each
// client's rate on a four-rung ladder, so at most 16 (spec, rate)
// classes exist and every N·r stays below 1 (64 × 0.008 = 0.512).
const population = 64

var (
	utilitySpecs = [4]string{"linear:1,0.5", "log:0.01,1", "sqrt:0.2,1", "power:1,1,1.5"}
	rateLadder   = [4]float64{0.002, 0.004, 0.006, 0.008}
)

// serviceOptions is the greedd configuration the workload runs.  The
// token bucket is sized so that no schedule the benchmark
// generates can empty it (validateBuckets proves it per schedule); the
// remaining fields are the service defaults, spelled out.
func serviceOptions() service.Options {
	return service.Options{
		MaxClients:      128,
		QueueCap:        64,
		Workers:         2,
		Burst:           1000,
		Refill:          1000,
		CacheCap:        1024,
		SolveTimeout:    2 * time.Second,
		DefaultDeadline: time.Second,
		MaxDeadline:     10 * time.Second,
		StallAfter:      5 * time.Second,
		Nash:            game.NashOptions{MaxIter: 200, Tol: 1e-6},
	}
}

// generatorWorkers is the number of load-generating goroutines, each
// with its own connection: at most one per CPU of the reference host.
const generatorWorkers = 2

func clientID(i int) string { return fmt.Sprintf("c%02d", i) }

// population bodies, rendered once.
var (
	solveBodies [population][]byte
	congPaths   [population]string
)

func init() {
	for i := range population {
		solveBodies[i] = mustJSON(service.SolveRequest{Client: clientID(i)})
		congPaths[i] = "/v1/congestion?client=" + clientID(i)
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request types are marshalled
	}
	return b
}

// initialRungs draws every client's starting rung from the seed.
func initialRungs(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	r := make([]int, population)
	for i := range r {
		r[i] = rng.Intn(len(rateLadder))
	}
	return r
}

// op is one scheduled control step.
type op struct {
	due    time.Duration // offset from the phase start
	client int
	update []byte // the update body
}

// makeSchedule generates count Poisson arrivals at rate steps/s.  Each
// step moves one client one rung, starting from rungs; the schedule
// never revisits a rung vector it already offered and never moves the
// previous step's client, so every step changes the profile.
func makeSchedule(rng *rand.Rand, rate float64, count int, rungs []int) []op {
	sched := make([]op, count)
	state := append([]int(nil), rungs...)
	seen := map[string]bool{rungKey(state): true}
	t, last := 0.0, -1
	for i := range sched {
		t += rng.ExpFloat64() / rate
		c, to := pickMove(rng, state, last, seen)
		state[c] = to
		seen[rungKey(state)] = true
		last = c
		sched[i] = op{due: time.Duration(t * 1e9), client: c,
			update: mustJSON(service.UpdateRequest{Client: clientID(c), Rate: rateLadder[to]})}
	}
	return sched
}

func rungKey(r []int) string {
	b := make([]byte, len(r))
	for i, x := range r {
		b[i] = byte(x)
	}
	return string(b)
}

// pickMove chooses a client other than last and a neighbouring rung,
// preferring moves that reach an unseen rung vector.
func pickMove(rng *rand.Rand, state []int, last int, seen map[string]bool) (client, to int) {
	for try := 0; ; try++ {
		c := rng.Intn(population)
		if c == last {
			continue
		}
		to = state[c] + 1
		if state[c] == len(rateLadder)-1 || (state[c] > 0 && rng.Intn(2) == 0) {
			to = state[c] - 1
		}
		old := state[c]
		state[c] = to
		fresh := !seen[rungKey(state)]
		state[c] = old
		if fresh || try >= 32 {
			return c, to
		}
	}
}

// validateBuckets replays the schedule against every client's token
// bucket and fails if any bucket could fall below half its burst, so a
// generator running late (which compresses arrivals) still cannot
// trigger a token-bucket rejection.
func validateBuckets(sched []op, opt service.Options) error {
	tokens := make([]float64, population)
	last := make([]float64, population)
	for i := range tokens {
		tokens[i] = opt.Burst
	}
	for _, o := range sched {
		t := o.due.Seconds()
		c := o.client
		tokens[c] = math.Min(opt.Burst, tokens[c]+(t-last[c])*opt.Refill)
		last[c] = t
		tokens[c] -= 2 // update and solve; congestion reads are free
		if tokens[c] < opt.Burst/2 {
			return fmt.Errorf("schedule would drain client %d's token bucket at t=%.3fs", c, t)
		}
	}
	return nil
}

// conn is one generator connection.
type conn struct {
	hc   *http.Client
	base string
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body into *dst.
func (c *conn) do(method, path string, body []byte, dst *[]byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf := bytes.NewBuffer((*dst)[:0])
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	*dst = buf.Bytes()
	return resp.StatusCode, err
}

// call sends one request that must succeed with 200.
func (c *conn) call(method, path string, body []byte, out any) error {
	var b []byte
	code, err := c.do(method, path, body, &b)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, code, bytes.TrimSpace(b))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// instance is one in-process greedd on a loopback listener plus the
// generator's connections to it.
type instance struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	conns  []*conn
	rungs  []int // the population's initial rungs
}

func boot(rungs []int) (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := service.New(serviceOptions())
	srv.Start()
	in := &instance{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1), rungs: rungs}
	go func() { in.served <- in.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for range generatorWorkers {
		in.conns = append(in.conns, newConn(base))
	}
	return in, nil
}

// close drains the server and waits for every goroutine it started.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range in.conns {
		c.close()
	}
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := in.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	return err
}

// restore puts every client back on its initial rung and solves once,
// so each phase starts from the same profile.
func (in *instance) restore() error {
	c := in.conns[0]
	for i := range population {
		body := mustJSON(service.UpdateRequest{Client: clientID(i), Rate: rateLadder[in.rungs[i]]})
		if err := c.call("POST", "/v1/update", body, nil); err != nil {
			return err
		}
	}
	var resp service.SolveResponse
	if err := c.call("POST", "/v1/solve", solveBodies[0], &resp); err != nil {
		return err
	}
	return checkSolve(&resp, population)
}

func (in *instance) stats() (service.Stats, error) {
	var st service.Stats
	err := in.conns[0].call("GET", "/v1/stats", nil, &st)
	return st, err
}

// setupGreedd boots a server, admits the population, solves it, reads
// every client's congestion, and warms the solver workspaces and both
// connections with a short burst of steps before returning to the
// initial profile.  It returns the ready instance and the set-up time.
func setupGreedd(seed int64) (*instance, time.Duration, error) {
	start := time.Now()
	in, err := boot(initialRungs(seed))
	if err != nil {
		return nil, 0, err
	}
	c := in.conns[0]
	for i := range population {
		body := mustJSON(service.UpdateRequest{Client: clientID(i), Rate: rateLadder[in.rungs[i]], Utility: utilitySpecs[i%len(utilitySpecs)]})
		if err := c.call("POST", "/v1/update", body, nil); err != nil {
			return nil, 0, errors.Join(fmt.Errorf("admit: %w", err), in.close())
		}
	}
	var first service.SolveResponse
	if err := c.call("POST", "/v1/solve", solveBodies[0], &first); err != nil {
		return nil, 0, errors.Join(err, in.close())
	}
	if err := checkSolve(&first, population); err != nil {
		return nil, 0, errors.Join(err, in.close())
	}
	var body []byte
	for i := range population {
		code, err := c.do("GET", congPaths[i], nil, &body)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("congestion for %s: HTTP %d", clientID(i), code)
		}
		if err == nil {
			err = checkCongestion(body, i, &first)
		}
		if err != nil {
			return nil, 0, errors.Join(err, in.close())
		}
	}
	warm := makeSchedule(rand.New(rand.NewSource(seed^0x5eed)), greeddSolveWL.nominal, 40, in.rungs)
	for i := range warm {
		warm[i].due = 0
	}
	if err := errors.Join(in.drive(warm, nil, 0).err(), in.restore()); err != nil {
		return nil, 0, errors.Join(err, in.close())
	}
	return in, time.Since(start), nil
}

// checkCongestion validates a congestion response against the solve
// that published it.
func checkCongestion(body []byte, client int, solved *service.SolveResponse) error {
	var cr service.CongestionResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return fmt.Errorf("congestion body: %w", err)
	}
	id := clientID(client)
	if cr.Client != id {
		return fmt.Errorf("congestion for %s answered for %q", id, cr.Client)
	}
	for i, c := range solved.Clients {
		if c == id {
			return errors.Join(checkBits("published rate of "+id, []float64{cr.Rate}, solved.R[i:i+1]),
				checkBits("published congestion of "+id, []float64{cr.Congestion}, solved.C[i:i+1]))
		}
	}
	return fmt.Errorf("client %s missing from the solve", id)
}

// sample is one operation's timing, as offsets from the phase start.
type sample struct {
	due, send, end time.Duration
}

// missRec is a solve request that ran the solver (neither cached nor
// coalesced), kept by the traced run for replay.
type missRec struct {
	span int64
	req  int64
	dur  time.Duration
	resp *service.SolveResponse
}

// phase is the outcome of driving one schedule.
type phase struct {
	samples  []sample
	sent     int64
	failed   int64
	checkErr []error
	aborted  bool
	wall     time.Duration
	misses   []missRec
}

func (p *phase) err() error {
	if p.failed > 0 {
		return errors.Join(append([]error{fmt.Errorf("%d of %d operations failed", p.failed, p.sent)}, p.checkErr...)...)
	}
	return errors.Join(p.checkErr...)
}

// workerState is one generator goroutine's scratch and results.
type workerState struct {
	c        *conn
	spans    *spanBuf
	buf      []byte // update response
	solveBuf []byte
	congBuf  []byte
	sent     int64
	failed   int64
	checkErr []error
	misses   []missRec
}

// drive offers sched as an open loop: generatorWorkers goroutines take
// operations in schedule order, each waits for its operation's due time,
// sends it, and records when it was due, sent and completed.  With
// abortAfter > 0 the phase stops once an operation would be sent later
// than that past its due time.
func (in *instance) drive(sched []op, tr *tracer, abortAfter time.Duration) *phase {
	ph := &phase{samples: make([]sample, len(sched))}
	var next atomic.Int64
	var aborted atomic.Bool
	ws := make([]*workerState, generatorWorkers)
	for i := range ws {
		ws[i] = &workerState{c: in.conns[i], spans: tr.buf(4 * len(sched) / generatorWorkers)}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, st := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) || aborted.Load() {
					return
				}
				o := &sched[k]
				due := start.Add(o.due)
				sleepUntil(due)
				send := time.Now()
				if abortAfter > 0 && send.Sub(due) > abortAfter {
					aborted.Store(true)
					return
				}
				failed := in.exec(o, st, int64(k))
				ph.samples[k] = sample{due: o.due, send: send.Sub(start), end: time.Since(start)}
				st.sent++
				if failed {
					st.failed++
				}
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.aborted = aborted.Load()
	for _, st := range ws {
		ph.sent += st.sent
		ph.failed += st.failed
		ph.checkErr = append(ph.checkErr, st.checkErr...)
		ph.misses = append(ph.misses, st.misses...)
	}
	if ph.aborted {
		// Keep only operations that were sent.
		kept := ph.samples[:0]
		for _, s := range ph.samples {
			if s.end > 0 {
				kept = append(kept, s)
			}
		}
		ph.samples = kept
	}
	return ph
}

// exec sends one control step and reports whether it failed.  Output
// checks run after the step's last response has been read, so they cost
// generator time but not measured latency.
func (in *instance) exec(o *op, st *workerState, req int64) (failed bool) {
	b := st.spans
	root := b.begin("op", -1, req)
	bad := func(what string, code int, err error) bool {
		b.finish(root)
		if err == nil {
			err = fmt.Errorf("HTTP %d", code)
		}
		st.checkErr = appendCapped(st.checkErr, fmt.Errorf("operation %d: %s: %w", req, what, err))
		return true
	}
	id := b.begin("update", root, req)
	code, err := st.c.do("POST", "/v1/update", o.update, &st.buf)
	b.finish(id)
	if err != nil || code != http.StatusOK {
		return bad("update", code, err)
	}
	t0 := time.Now()
	sid := b.begin("solve", root, req)
	code, err = st.c.do("POST", "/v1/solve", solveBodies[o.client], &st.solveBuf)
	b.finish(sid)
	solveDur := time.Since(t0)
	if err != nil || code != http.StatusOK {
		return bad("solve", code, err)
	}
	id = b.begin("congestion", root, req)
	code, err = st.c.do("GET", congPaths[o.client], nil, &st.congBuf)
	b.finish(id)
	if err != nil || code != http.StatusOK {
		return bad("congestion", code, err)
	}
	b.finish(root)
	resp := new(service.SolveResponse)
	if err := json.Unmarshal(st.solveBuf, resp); err != nil {
		st.checkErr = appendCapped(st.checkErr, fmt.Errorf("solve body: %w", err))
		return false
	}
	st.checkErr = appendCapped(st.checkErr, checkSolve(resp, population))
	var cr service.CongestionResponse
	if err := json.Unmarshal(st.congBuf, &cr); err != nil || cr.Client != clientID(o.client) ||
		!(cr.Congestion >= 0) || math.IsInf(cr.Congestion, 0) {
		st.checkErr = appendCapped(st.checkErr, fmt.Errorf("congestion for %s: %s", clientID(o.client), st.congBuf))
	}
	if b != nil && !resp.Cached && !resp.Coalesced {
		st.misses = append(st.misses, missRec{span: sid, req: req, dur: solveDur, resp: resp})
	}
	return false
}

// appendCapped keeps the first few check failures; one is enough to
// fail the run and the rest would only repeat it.
func appendCapped(errs []error, err error) []error {
	if err == nil || len(errs) >= 5 {
		return errs
	}
	return append(errs, err)
}

// latencyStats summarizes a phase: latency from due time, lateness of
// the send, and the backlog.
type latencyStats struct {
	n                  int
	p50, p99           float64 // ms; p99 over windows of p99Window operations
	p99ok              bool
	windows            int
	lateP99            float64 // ms
	outstanding        int
	lateHead, lateTail float64 // ms, median lateness of the first and last quarter
}

// p99Window is the number of operations per p99 window: enough that
// each window's p99 has minBeyond samples beyond it.
const p99Window = 100 * minBeyond

func summarize(ph *phase) latencyStats {
	s := latencyStats{n: len(ph.samples)}
	if s.n == 0 {
		return s
	}
	lat := make([]float64, s.n)
	late := make([]float64, s.n)
	for i, x := range ph.samples {
		lat[i] = float64(x.end-x.due) / 1e6
		late[i] = float64(x.send-x.due) / 1e6
	}
	q := s.n / 4
	if q > 0 {
		s.lateHead = median(append([]float64(nil), late[:q]...))
		s.lateTail = median(append([]float64(nil), late[s.n-q:]...))
	}
	s.p99, s.windows = windowedP99(lat, p99Window)
	s.p99ok = s.windows > 0
	s.p50, _, _ = quantile(lat, 0.50)
	s.lateP99, _, _ = quantile(late, 0.99)
	s.outstanding = maxOutstanding(ph.samples)
	return s
}

// maxOutstanding is the largest number of operations due but not yet
// completed at any instant.
func maxOutstanding(samples []sample) int {
	type ev struct {
		t time.Duration
		d int
	}
	evs := make([]ev, 0, 2*len(samples))
	for _, s := range samples {
		evs = append(evs, ev{s.due, 1}, ev{s.end, -1})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].d < evs[b].d
	})
	cur, best := 0, 0
	for _, e := range evs {
		cur += e.d
		best = max(best, cur)
	}
	return best
}

// met reports whether a rate step met the limit: every operation
// succeeded, the generator kept up, p99 latency from due time stayed
// within the limit, and the backlog did not grow across the step.
func met(ph *phase, s latencyStats, limit time.Duration) (bool, string) {
	lim := float64(limit) / 1e6
	switch {
	case ph.aborted:
		return false, "generator fell behind"
	case ph.failed > 0:
		return false, fmt.Sprintf("%d failed", ph.failed)
	case !s.p99ok:
		return false, "too few samples for p99"
	case s.lateP99 > lim:
		return false, fmt.Sprintf("late p99 %.2fms", s.lateP99)
	case s.p99 > lim:
		return false, fmt.Sprintf("p99 %.2fms", s.p99)
	case s.lateTail > math.Max(2*s.lateHead, lim/10):
		return false, fmt.Sprintf("backlog grew: lateness %.2fms -> %.2fms", s.lateHead, s.lateTail)
	}
	return true, fmt.Sprintf("p99 %.2fms", s.p99)
}

// ladderRate is the offered rate of search rung k: 5% apart, so the
// search resolves ops_per_s to 5%.
func ladderRate(nominal float64, k int) float64 { return nominal * math.Pow(1.05, float64(k)) }

// search estimates the highest offered rate that meets the limit with
// a staircase on the rung ladder, until deadline.  It starts at the
// rung nearest capGuess, the rate at which the CPU time per operation
// measured at the nominal rate would fill every CPU.  It climbs after a
// met step and descends after a missed one, two rungs at a time until
// the first reversal and one rung after it.  From the first reversal
// on, each step is evidence of where the highest met rung lies: a met
// step at rung k for k, a missed one for k−1.  The estimate is the
// median of that evidence: the staircase then oscillates around the
// boundary, and the median of several steps is steadier than any single
// step on a host whose speed drifts.  Each rung's schedule derives from
// (seed, rung) alone, so a rung offers byte-identical input whichever
// path reaches it; the path itself follows the pass/fail outcomes.
func (in *instance) search(w *greeddWorkload, seed int64, nominalMet bool, capGuess float64, deadline time.Time, rep *report) (float64, error) {
	k := int(math.Round(math.Log(capGuess/w.nominal) / math.Log(1.05)))
	stride, reversed, last := 2, false, 0
	var settled, everMet []float64
	var attempted, failed int64
	defer func() { rep.ops(attempted, failed) }()
	for {
		rate := ladderRate(w.nominal, k)
		n := max(w.stepOps, int(rate*w.minStep.Seconds()))
		if time.Now().Add(time.Duration(float64(n)/rate*1.2*float64(time.Second)) + time.Second).After(deadline) {
			break
		}
		if err := in.restore(); err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(seed*1_000_003 + 7919*int64(k+1000)))
		sched := makeSchedule(rng, rate, n, in.rungs)
		if err := validateBuckets(sched, serviceOptions()); err != nil {
			return 0, err
		}
		ph := in.drive(sched, nil, 4*w.limit+time.Second)
		attempted += ph.sent
		failed += ph.failed
		if len(ph.checkErr) > 0 {
			rep.fail(fmt.Errorf("rate step %.1f/s: %w", rate, errors.Join(ph.checkErr...)))
		}
		s := summarize(ph)
		ok, why := met(ph, s, w.limit)
		rep.note("rate step %7.1f/s (rung %+d, %d ops): met=%v %s", rate, k, s.n, ok, why)
		dir := -1
		if ok {
			dir = 1
			everMet = append(everMet, rate)
		}
		if last != 0 && dir != last {
			reversed, stride = true, 1
		}
		if reversed {
			best := k
			if !ok {
				best = k - 1
			}
			settled = append(settled, ladderRate(w.nominal, best))
		}
		last = dir
		k += dir * stride
		runtime.GC()
	}
	switch {
	case len(settled) > 0:
		return median(settled), nil
	case len(everMet) > 0:
		rep.note("the staircase never reversed; ops_per_s is the highest rate met")
		return slices.Max(everMet), nil
	case nominalMet:
		rep.note("no rate step was met; ops_per_s falls back to the nominal rate")
		return w.nominal, nil
	}
	return 0, errors.New("no offered rate met the latency limit")
}
