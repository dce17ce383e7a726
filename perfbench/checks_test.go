package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"greednet/internal/alloc"
	"greednet/internal/cliutil"
	"greednet/internal/core"
	"greednet/internal/game"
	"greednet/internal/mm1"
	"greednet/internal/profkey"
	"greednet/internal/service"
)

// solvedResponse solves the benchmark's initial greedd profile the way
// the service does and wraps it as a response.
func solvedResponse(t *testing.T) *service.SolveResponse {
	t.Helper()
	rungs := initialRungs(1)
	ids := make([]string, population)
	rates := make([]float64, population)
	specs := make([]string, population)
	us := make(core.Profile, population)
	for i := range ids {
		ids[i], rates[i], specs[i] = clientID(i), rateLadder[rungs[i]], utilitySpecs[i%len(utilitySpecs)]
		u, err := cliutil.ParseUtility(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		us[i] = u
	}
	nr, err := game.SolveNashWS(context.Background(), nil, alloc.FairShare{}, us, rates, serviceOptions().Nash)
	if err != nil {
		t.Fatal(err)
	}
	return &service.SolveResponse{Key: profkey.PerUser(ids, rates, specs), Converged: nr.Converged, Iters: nr.Iters, Clients: ids, R: nr.R, C: nr.C}
}

func cloneResp(r *service.SolveResponse) *service.SolveResponse {
	c := *r
	c.R = append([]float64(nil), r.R...)
	c.C = append([]float64(nil), r.C...)
	return &c
}

func TestCheckSolveFiresOnCorruptAnswers(t *testing.T) {
	good := solvedResponse(t)
	if err := checkSolve(good, population); err != nil {
		t.Fatalf("valid solve rejected: %v", err)
	}
	// Corrupt a client whose protection bound is finite (N·r < 1).
	top := -1
	for i, r := range good.R {
		if float64(population)*r < 1 && (top < 0 || r > good.R[top]) {
			top = i
		}
	}
	if top < 0 {
		t.Fatal("test profile has no finite protection bound")
	}
	// The largest congestion absorbs the shift, so the sum is kept and
	// only the protection bound is violated.
	other := 0
	for i, c := range good.C {
		if i != top && c > good.C[other] {
			other = i
		}
	}
	corrupt := map[string]struct {
		f    func(r *service.SolveResponse)
		want string
	}{
		"not converged": {func(r *service.SolveResponse) { r.Converged = false }, "converge"},
		"short vector":  {func(r *service.SolveResponse) { r.C = r.C[:population-1] }, "want 64"},
		"NaN":           {func(r *service.SolveResponse) { r.C[3] = math.NaN() }, "finite"},
		"negative":      {func(r *service.SolveResponse) { r.R[3] = -r.R[3] }, "non-negative"},
		"sum off":       {func(r *service.SolveResponse) { r.C[5] *= 1 + 1e-6 }, "g(Σr)"},
		"over the Theorem 8 bound, sum kept": {func(r *service.SolveResponse) {
			bound := r.R[top] / (1 - float64(population)*r.R[top])
			shift := bound*1.01 - r.C[top]
			r.C[top] += shift
			r.C[other] -= shift
		}, "Theorem 8"},
	}
	for name, c := range corrupt {
		bad := cloneResp(good)
		c.f(bad)
		if err := checkSolve(bad, population); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.want)
		}
	}
}

func TestCheckBitsFiresOnOneULP(t *testing.T) {
	a := []float64{0.1, 0.2, 0.3}
	b := append([]float64(nil), a...)
	if err := checkBits("same", a, b); err != nil {
		t.Fatal(err)
	}
	b[1] = math.Nextafter(b[1], 1)
	if checkBits("ulp", a, b) == nil {
		t.Error("one-ULP difference not caught")
	}
	if checkBits("length", a, b[:2]) == nil {
		t.Error("length difference not caught")
	}
}

func TestCheckCongestionFiresOnWrongPoint(t *testing.T) {
	solved := solvedResponse(t)
	body := func(cr service.CongestionResponse) []byte {
		b, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := service.CongestionResponse{Client: clientID(7), Rate: solved.R[7], Congestion: solved.C[7]}
	if err := checkCongestion(body(good), 7, solved); err != nil {
		t.Fatalf("valid congestion rejected: %v", err)
	}
	wrongC, wrongClient := good, good
	wrongC.Congestion = math.Nextafter(good.Congestion, 1)
	wrongClient.Client = clientID(8)
	for name, cr := range map[string]service.CongestionResponse{"congestion": wrongC, "client": wrongClient} {
		if checkCongestion(body(cr), 7, solved) == nil {
			t.Errorf("wrong %s not caught", name)
		}
	}
}

func TestCheckTotalQueueFiresOnBias(t *testing.T) {
	const load = 0.8
	g := float64(mm1.G(load))
	rng := rand.New(rand.NewSource(3))
	unbiased := make([]float64, 200)
	biased := make([]float64, 200)
	for i := range unbiased {
		noise := 0.05 * g * rng.NormFloat64()
		unbiased[i] = g + noise
		biased[i] = 0.97*g + noise
	}
	if err := checkTotalQueue("unbiased", unbiased, load); err != nil {
		t.Fatalf("unbiased samples rejected: %v", err)
	}
	if checkTotalQueue("biased", biased, load) == nil {
		t.Error("a 3% bias over 200 runs was not caught")
	}
	if checkTotalQueue("single", unbiased[:1], load) == nil {
		t.Error("a single run cannot be pooled")
	}
}

func TestCoversUsesSummedHalfWidths(t *testing.T) {
	g := float64(mm1.G(0.5))
	if !covers(g+0.15, []float64{0.1, 0.1}, 0.5) {
		t.Error("0.15 off with half-width 0.2 should cover")
	}
	if covers(g+0.25, []float64{0.1, 0.1}, 0.5) {
		t.Error("0.25 off with half-width 0.2 should not cover")
	}
}

func TestClassSolverMatchesExactAtKEqualsN(t *testing.T) {
	if err := classExactBitEqual(1); err != nil {
		t.Fatal(err)
	}
}

func TestOverrunMeasuresChildrenBeyondParent(t *testing.T) {
	if got := overrun([]float64{1, 1}, []float64{0.9, 0.5}); got != 0 {
		t.Errorf("children inside their spans: overrun %v, want 0", got)
	}
	if got := overrun([]float64{1, 1}, []float64{1.5, 0.5}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("one child 0.5 over a total of 2: overrun %v, want 0.25", got)
	}
}

func TestQuantileWithholdsThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, beyond, ok := quantile(xs, 0.99); ok || beyond != 9 {
		t.Errorf("999 samples: beyond %d ok %v, want 9 and withheld", beyond, ok)
	}
	xs = append(xs, 999)
	if v, beyond, ok := quantile(xs, 0.99); !ok || beyond != 10 || v != 989 {
		t.Errorf("1000 samples: p99 %v beyond %d ok %v, want 989, 10, reported", v, beyond, ok)
	}
}

func TestScheduleIsSeededAndEveryStepMoves(t *testing.T) {
	rungs := initialRungs(5)
	a := makeSchedule(rand.New(rand.NewSource(5)), 100, 500, rungs)
	b := makeSchedule(rand.New(rand.NewSource(5)), 100, 500, rungs)
	state := append([]int(nil), rungs...)
	for i := range a {
		if a[i].due != b[i].due || a[i].client != b[i].client || string(a[i].update) != string(b[i].update) {
			t.Fatalf("op %d differs between two schedules from one seed", i)
		}
		var req service.UpdateRequest
		if err := json.Unmarshal(a[i].update, &req); err != nil {
			t.Fatal(err)
		}
		if req.Rate == rateLadder[state[a[i].client]] {
			t.Fatalf("op %d does not change client %d's rate", i, a[i].client)
		}
		for k, r := range rateLadder {
			if r == req.Rate {
				if k-state[a[i].client] != 1 && state[a[i].client]-k != 1 {
					t.Fatalf("op %d moves more than one rung", i)
				}
				state[a[i].client] = k
			}
		}
		if i > 0 && a[i].client == a[i-1].client {
			t.Fatalf("op %d moves the previous step's client again", i)
		}
	}
	if err := validateBuckets(a, serviceOptions()); err != nil {
		t.Fatal(err)
	}
	tight := serviceOptions()
	tight.Burst, tight.Refill = 4, 0.5
	if validateBuckets(a, tight) == nil {
		t.Error("a schedule that drains a small bucket was accepted")
	}
}

func TestMetRejectsLateOrGrowingSteps(t *testing.T) {
	ms := time.Millisecond
	steady := &phase{}
	for i := range 2000 {
		due := time.Duration(i) * ms
		steady.samples = append(steady.samples, sample{due: due, send: due, end: due + ms})
	}
	if ok, why := met(steady, summarize(steady), 5*ms); !ok {
		t.Fatalf("steady step not met: %s", why)
	}
	growing := &phase{}
	for i := range 2000 {
		due := time.Duration(i) * ms
		late := time.Duration(i) * 20 * time.Microsecond
		growing.samples = append(growing.samples, sample{due: due, send: due + late, end: due + late + ms})
	}
	if ok, _ := met(growing, summarize(growing), 50*ms); ok {
		t.Error("a step whose lateness grows sevenfold, within the limit, was met")
	}
	failed := &phase{samples: steady.samples, failed: 1}
	if ok, _ := met(failed, summarize(failed), 5*ms); ok {
		t.Error("a step with a failed operation was met")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric lists
// and BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found")
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i].Name != c.want[i].name || c.got[i].Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", c.what, i, c.got[i].Name, c.got[i].Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// TestDriveRunsAndDrains boots greedd, offers a short traced schedule
// from both generator goroutines, and shuts the server down: the
// concurrency the benchmark relies on, small enough for -race.
func TestDriveRunsAndDrains(t *testing.T) {
	in, _, err := setupGreedd(1)
	if err != nil {
		t.Fatal(err)
	}
	sched := makeSchedule(rand.New(rand.NewSource(1)), 200, 60, in.rungs)
	tr := newTracer()
	ph := in.drive(sched, tr, 0)
	if err := ph.err(); err != nil {
		t.Error(err)
	}
	if ph.sent != int64(len(sched)) || len(ph.samples) != len(sched) {
		t.Errorf("sent %d of %d steps, %d samples", ph.sent, len(sched), len(ph.samples))
	}
	if len(ph.misses) == 0 || len(tr.durations("op")) != len(sched) {
		t.Errorf("%d misses, %d op spans for %d steps", len(ph.misses), len(tr.durations("op")), len(sched))
	}
	if err := in.close(); err != nil {
		t.Fatal(err)
	}
}
