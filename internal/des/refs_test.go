package des

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"

	"greednet/internal/randdist"
)

// Test-only references for the two discipline objects the frozen engines
// cannot pin: refRun and RunGHeap drive the same FairShareSplitter,
// SerialClass and FQSched values as the engines under test, so a change
// inside those types would move both sides of the differential suite
// together.  These copies keep the historical constructions.

// refTable1 is the historical Table-1 thinner: one explicit CDF table per
// user, O(N²) memory, searched with sort.SearchFloat64s.
type refTable1 struct {
	cdf [][]float64
	rng *rand.Rand
}

func (r *refTable1) reset(rates []float64, rng *rand.Rand) {
	n := len(rates)
	r.rng = rng
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rates[idx[a]] < rates[idx[b]] })
	sorted := make([]float64, n)
	rank := make([]int, n)
	for k, u := range idx {
		sorted[k] = rates[u]
		rank[u] = k
	}
	r.cdf = make([][]float64, n)
	for u := 0; u < n; u++ {
		k := rank[u]
		cdf := make([]float64, k+1)
		prev, acc := 0.0, 0.0
		for m := 0; m <= k; m++ {
			acc += sorted[m] - prev
			prev = sorted[m]
			cdf[m] = acc / sorted[k]
		}
		cdf[k] = 1
		r.cdf[u] = cdf
	}
}

func (r *refTable1) classify(user int) int {
	cdf := r.cdf[user]
	cls := sort.SearchFloat64s(cdf, r.rng.Float64())
	if cls >= len(cdf) {
		cls = len(cdf) - 1
	}
	return cls
}

// TestSerialClassMatchesTable1Ref draws classes from SerialClass (and,
// through it, FairShareSplitter) and from the O(N²) reference on twin
// rng streams: every draw must pick the same class.  The rate sets cover
// the differential suite's (including the 1e-12 adversarial trailing
// rates), random rates, and heavy ties.
func TestSerialClassMatchesTable1Ref(t *testing.T) {
	rates := diffRates()
	gen := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 7, 50, 300} {
		r := make([]float64, n)
		tied := make([]float64, n)
		for i := range r {
			r[i] = (0.01 + gen.Float64()) * 0.9 / float64(n)
			tied[i] = float64(1+gen.Intn(3)) * 0.3 / float64(n)
		}
		rates = append(rates, r, tied)
	}
	for ci, rs := range rates {
		for _, seed := range diffSeeds {
			var got SerialClass
			var want refTable1
			got.Reset(rs, randdist.NewRand(seed))
			want.reset(rs, randdist.NewRand(seed))
			for k := 0; k < 4000; k++ {
				u := k % len(rs)
				if g, w := got.Classify(u), want.classify(u); g != w {
					t.Fatalf("rates #%d seed %d draw %d user %d: class %d, reference %d", ci, seed, k, u, g, w)
				}
			}
			if got.NumClasses() != len(rs) {
				t.Fatalf("rates #%d: NumClasses %d, want %d", ci, got.NumClasses(), len(rs))
			}

			// Uniform draws landing exactly on a CDF entry and on its
			// neighbours: an entry off by one ulp, or a strict compare
			// where the table search is inclusive, picks another class.
			var users []int
			var draws []int64
			for u := range rs {
				for _, c := range want.cdf[u] {
					for _, x := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, 1)} {
						if v := int64(math.Ldexp(x, 63)); x < 1 && math.Ldexp(float64(v), -63) == x {
							users = append(users, u)
							draws = append(draws, v)
						}
					}
				}
			}
			got.Reset(rs, rand.New(&fixedSource{draws}))
			want.reset(rs, rand.New(&fixedSource{draws}))
			for k, u := range users {
				if g, w := got.Classify(u), want.classify(u); g != w {
					t.Fatalf("rates #%d boundary draw %d user %d: class %d, reference %d", ci, k, u, g, w)
				}
			}

			var fs FairShareSplitter
			fs.Reset(rs, randdist.NewRand(seed))
			want.reset(rs, randdist.NewRand(seed))
			for k := 0; k < 400; k++ {
				u := k % len(rs)
				fs.Enqueue(Packet{User: u})
				if g, w := fs.Dequeue().Class, want.classify(u); g != w {
					t.Fatalf("rates #%d seed %d draw %d user %d: splitter class %d, reference %d", ci, seed, k, u, g, w)
				}
			}
		}
	}
}

// fixedSource replays chosen Int63 values, so rand.Float64 returns
// exactly v/2⁶³ for each.
type fixedSource struct{ v []int64 }

func (s *fixedSource) Int63() int64 {
	x := s.v[0]
	s.v = s.v[1:]
	return x
}

func (s *fixedSource) Seed(int64) {}

// refFQHeap is the historical container/heap ordering of FQ finish tags,
// boxing every push and pop through interface{}.
type refFQHeap []fqItem

func (h refFQHeap) Len() int { return len(h) }
func (h refFQHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish { // exact finish-tag tie-break, as the historical heap
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h refFQHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refFQHeap) Push(x interface{}) { *h = append(*h, x.(fqItem)) }
func (h *refFQHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestFQHeapMatchesBoxedRef drives FQSched's typed heap and the boxed
// container/heap with the same tag stream and requires identical pop
// sequences.  Deterministic service makes finish-tag ties exact, so the
// seq tie-break is exercised as well as the tag order.
func TestFQHeapMatchesBoxedRef(t *testing.T) {
	services := map[string]randdist.Dist{
		"det": randdist.Deterministic{},
		"exp": randdist.Exponential{},
	}
	for name, svc := range services {
		rng := rand.New(rand.NewSource(11))
		var f FQSched
		f.Reset([]float64{0.1, 0.2, 0.3, 0.2})
		var ref refFQHeap
		now, seq, ties := 0.0, int64(0), 0
		push := func(u int) {
			p := &gpacket{user: u, remaining: svc.Sample(rng)}
			f.Enqueue(p, now)
			seq++
			heap.Push(&ref, fqItem{p: p, finish: f.lastFinish[u], seq: seq})
		}
		for step := 0; step < 20000; step++ {
			now += rng.ExpFloat64() * 0.3
			switch x := rng.Float64(); {
			case x < 0.02:
				// A burst of simultaneous arrivals after a long gap: every
				// flow whose stale tag virtual time has passed starts at
				// the same V(now), so their tags tie exactly.
				now += 100
				for u := 0; u < 4; u++ {
					push(u)
				}
				continue
			case f.Len() == 0 || x < 0.5:
				push(rng.Intn(4))
				continue
			}
			want := heap.Pop(&ref).(fqItem)
			if len(ref) > 0 && ref[0].finish == want.finish { // an exact tag tie, decided by seq
				ties++
			}
			if got := f.Dequeue(now); got != want.p {
				t.Fatalf("%s step %d: popped packet (user %d) differs from the reference (user %d)", name, step, got.user, want.p.user)
			}
		}
		if name == "det" && ties == 0 {
			t.Fatalf("deterministic service produced no exact finish-tag ties")
		}
	}
}
