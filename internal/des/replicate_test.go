package des

import (
	"errors"
	"math"
	"testing"
)

// TestRunRejectsNaNConfig is the regression test for the silent-NaN bug:
// Config{Horizon: NaN} used to sail past validation and return
// all-NaN statistics with a nil error.  Every non-finite span, and every
// unusable rate set, must be ErrBadConfig across all four engines.
func TestRunRejectsNaNConfig(t *testing.T) {
	rates := []float64{0.2, 0.3}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		if _, err := Run(Config{Rates: rates, Discipline: &FIFO{}, Horizon: v}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Run(Horizon=%v): err=%v, want ErrBadConfig", v, err)
		}
		if _, err := Run(Config{Rates: rates, Discipline: &FIFO{}, Warmup: v}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Run(Warmup=%v): err=%v, want ErrBadConfig", v, err)
		}
		if _, err := RunG(GConfig{Rates: rates, Horizon: v}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("RunG(Horizon=%v): err=%v, want ErrBadConfig", v, err)
		}
		if _, err := RunSched(SchedConfig{Rates: rates, Warmup: v}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("RunSched(Warmup=%v): err=%v, want ErrBadConfig", v, err)
		}
		if _, err := RunTandem(TandemConfig{
			LongRates: []float64{0.2},
			NewDisc:   func() Discipline { return &FIFO{} },
			Horizon:   v,
		}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("RunTandem(Horizon=%v): err=%v, want ErrBadConfig", v, err)
		}
	}
	// Unusable rate sets: a nonpositive, NaN or infinite rate, an
	// unstable total Σr ≥ 1, or no rates at all.  Every engine validates
	// through the same normaliser, so all four must refuse each; the
	// tandem sees the set once as its long users and once as station-A
	// cross traffic.
	badRates := map[string][]float64{
		"zero":     {0.2, 0},
		"negative": {0.2, -0.1},
		"nan":      {math.NaN()},
		"+inf":     {0.2, math.Inf(1)},
		"sum=1":    {0.5, 0.5},
		"sum>1":    {0.6, 0.7},
		"empty":    {},
	}
	fifo := func() Discipline { return &FIFO{} }
	for name, r := range badRates {
		if _, err := Run(Config{Rates: r, Discipline: &FIFO{}}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Run(rates %s): err=%v, want ErrBadConfig", name, err)
		}
		if _, err := RunG(GConfig{Rates: r}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("RunG(rates %s): err=%v, want ErrBadConfig", name, err)
		}
		if _, err := RunSched(SchedConfig{Rates: r}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("RunSched(rates %s): err=%v, want ErrBadConfig", name, err)
		}
		if _, err := RunTandem(TandemConfig{LongRates: r, NewDisc: fifo}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("RunTandem(long rates %s): err=%v, want ErrBadConfig", name, err)
		}
		if len(r) > 0 {
			if _, err := RunTandem(TandemConfig{LongRates: []float64{0.1}, CrossA: r, NewDisc: fifo}); !errors.Is(err, ErrBadConfig) {
				t.Errorf("RunTandem(cross-A rates %s): err=%v, want ErrBadConfig", name, err)
			}
		}
	}
}

// TestRunReplicationsMatchesSequentialRuns checks the fan-out changes
// nothing: each replication must equal a direct Run with the same seed,
// for any worker count.
func TestRunReplicationsMatchesSequentialRuns(t *testing.T) {
	cfg := Config{Rates: []float64{0.15, 0.25}, Horizon: 2e4}
	seeds := []int64{1, 2, 3, 4, 5}

	want := make([]Result, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Discipline = &FIFO{}
		c.Seed = s
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, workers := range []int{1, 4} {
		got, err := RunReplications(cfg, func() Discipline { return &FIFO{} }, seeds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(seeds) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(seeds))
		}
		for i := range seeds {
			for u := range cfg.Rates {
				if got[i].AvgQueue[u] != want[i].AvgQueue[u] { // same seed, same stream: results must be bit-identical
					t.Errorf("workers=%d seed %d user %d: AvgQueue %v != sequential %v",
						workers, seeds[i], u, got[i].AvgQueue[u], want[i].AvgQueue[u])
				}
			}
			if got[i].Departures != want[i].Departures {
				t.Errorf("workers=%d seed %d: Departures %d != %d", workers, seeds[i], got[i].Departures, want[i].Departures)
			}
		}
	}
}

func TestRunReplicationsRejectsBadUse(t *testing.T) {
	cfg := Config{Rates: []float64{0.2}}
	mk := func() Discipline { return &FIFO{} }
	if _, err := RunReplications(cfg, nil, []int64{1}, 2); !errors.Is(err, ErrBadConfig) {
		t.Error("nil factory should be ErrBadConfig")
	}
	if _, err := RunReplications(cfg, mk, nil, 2); !errors.Is(err, ErrBadConfig) {
		t.Error("no seeds should be ErrBadConfig")
	}
	shared := cfg
	shared.OnDeparture = func(Packet, float64) {}
	if _, err := RunReplications(shared, mk, []int64{1}, 2); !errors.Is(err, ErrBadConfig) {
		t.Error("shared OnDeparture callback should be ErrBadConfig")
	}
	// A failing replication surfaces its seed and index.
	bad := Config{Rates: []float64{0.6, 0.6}}
	if _, err := RunReplications(bad, mk, []int64{7, 8}, 2); !errors.Is(err, ErrBadConfig) {
		t.Errorf("overloaded replications should wrap ErrBadConfig, got %v", err)
	}
}
