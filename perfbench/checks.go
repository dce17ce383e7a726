package main

import (
	"fmt"
	"math"

	"greednet/internal/mm1"
	"greednet/internal/service"
)

// sumTol is the relative tolerance of the work-conservation check
// Σc = g(Σr) on a solved profile: the allocations compute both sides in
// float64, so only rounding separates them.
const sumTol = 1e-9

// checkSolve validates one greedd solve response for a population of n
// clients: the solve converged, the congestions are finite and
// non-negative, Σc = g(Σr) within sumTol, and every client's congestion
// respects its Theorem 8 protection bound r_i/(1 − n·r_i) wherever that
// bound is finite.
func checkSolve(resp *service.SolveResponse, n int) error {
	if !resp.Converged {
		return fmt.Errorf("solve %q did not converge after %d rounds", resp.Key, resp.Iters)
	}
	if len(resp.Clients) != n || len(resp.R) != n || len(resp.C) != n {
		return fmt.Errorf("solve returned %d clients, %d rates, %d congestions; want %d each",
			len(resp.Clients), len(resp.R), len(resp.C), n)
	}
	if err := checkSums(resp.Key, resp.R, resp.C, nil); err != nil {
		return err
	}
	for i := range resp.R {
		r, c := resp.R[i], resp.C[i]
		if nr := float64(n) * r; nr < 1 {
			if bound := r / (1 - nr); c > bound*(1+sumTol) {
				return fmt.Errorf("client %s: congestion %v exceeds its protection bound %v (Theorem 8)", resp.Clients[i], c, bound)
			}
		}
	}
	return nil
}

// checkSums validates an equilibrium of a work-conserving discipline:
// rates and congestions finite and non-negative, Σr < 1, and
// Σ m_i·c_i = g(Σ m_i·r_i) within sumTol, where m_i is the multiplicity
// of entry i (nil: every entry is one user).
func checkSums(what string, r, c []float64, m []int) error {
	if len(r) != len(c) || (m != nil && len(m) != len(r)) {
		return fmt.Errorf("%s: %d rates, %d congestions", what, len(r), len(c))
	}
	sr, sc := 0.0, 0.0
	for i := range r {
		if !(r[i] >= 0) || !(c[i] >= 0) || math.IsInf(r[i], 0) || math.IsInf(c[i], 0) {
			return fmt.Errorf("%s: entry %d has rate %v congestion %v, not finite and non-negative", what, i, r[i], c[i])
		}
		w := 1.0
		if m != nil {
			w = float64(m[i])
		}
		sr += w * r[i]
		sc += w * c[i]
	}
	if sr >= 1 {
		return fmt.Errorf("%s: rates sum to %v ≥ 1", what, sr)
	}
	if g := float64(mm1.G(sr)); math.Abs(sc-g) > sumTol*g {
		return fmt.Errorf("%s: Σc = %v but g(Σr) = %v (relative error %.3g > %g)", what, sc, g, math.Abs(sc-g)/g, sumTol)
	}
	return nil
}

// checkBits reports whether got and want hold bit-identical float64s.
func checkBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: value %d is %v, want bit-identical %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// coverZ is the width, in standard errors, of the pooled DES check.  A
// false alarm at 5 standard errors has probability below one in a
// million per configuration, so the check fires only on a biased engine.
const coverZ = 5

// checkTotalQueue validates a DES configuration's time-averaged total
// queue against g(Σr), the M/M/1 value every work-conserving discipline
// with exponential service must reproduce.  samples are the runs'
// TotalAvgQueue values; their pooled mean must lie within coverZ
// standard errors of the replication spread.
func checkTotalQueue(what string, samples []float64, load float64) error {
	n := len(samples)
	if n < 2 {
		return fmt.Errorf("%s: %d runs, need at least 2 to pool", what, n)
	}
	mean := 0.0
	for _, x := range samples {
		mean += x
	}
	mean /= float64(n)
	ss := 0.0
	for _, x := range samples {
		ss += (x - mean) * (x - mean)
	}
	se := math.Sqrt(ss / float64(n-1) / float64(n))
	g := float64(mm1.G(load))
	if math.IsNaN(mean) || math.Abs(mean-g) > coverZ*se {
		return fmt.Errorf("%s: pooled total queue %v over %d runs is %.2f standard errors from g(%v) = %v",
			what, mean, n, math.Abs(mean-g)/se, load, g)
	}
	return nil
}

// covers reports whether a run's total-queue interval covers g(Σr).
// The interval's half-width is the sum of the per-user batch-means
// half-widths, which bounds the half-width of their sum.
func covers(total float64, ci []float64, load float64) bool {
	hw := 0.0
	for _, h := range ci {
		hw += h
	}
	return math.Abs(total-float64(mm1.G(load))) <= hw
}

// overrun is the accounting residual of replayed child spans against
// their parents: the total by which children exceed their parent span,
// as a share of the parents' total.  Where children fit inside their
// parent the remainder is the parent layer's self time, and the
// identity self + children = span holds exactly.
func overrun(spans, children []float64) float64 {
	total, over := 0.0, 0.0
	for i, s := range spans {
		total += s
		over += max(0, children[i]-s)
	}
	if total == 0 {
		return 0
	}
	return over / total
}
