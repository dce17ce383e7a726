package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (sorted in place)
// and the number of samples that lie beyond it.  ok is false when fewer
// than minBeyond samples lie beyond: such a percentile is withheld.
func quantile(xs []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	return xs[rank-1], beyond, beyond >= minBeyond
}

// median returns the median of xs (sorted in place), 0 when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// heapSampler tracks the peak live heap while a measurement runs: the
// largest number of heap bytes a GC cycle marked live, polled from
// runtime/metrics (which does not stop the world) every few
// milliseconds.  The live heap rather than the allocated one, because
// the allocated peak depends on where between two cycles a poll lands,
// while a run holds hundreds of cycles whose live marks converge on the
// program's real peak.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapLive = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapLive}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// gcStats reads the cumulative GC cycle count and total pause time.
func gcStats() (cycles uint64, pause time.Duration) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	cycles = s[0].Value.Uint64()
	h := s[1].Value.Float64Histogram()
	for i, c := range h.Counts {
		// Bucket midpoints; the outermost buckets are open-ended.
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		pause += time.Duration(float64(c) * (lo + hi) / 2 * 1e9)
	}
	return cycles, pause
}

// allocSample is allocCount's reusable buffer, so that reading the
// counter does not itself allocate.  Only the main goroutine reads it.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// allocCount reads the cumulative number of heap objects allocated.
func allocCount() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// processCPU returns the CPU time the process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowedP99 splits xs, in completion order, into consecutive windows
// of at least window samples and returns the median of the windows'
// nearest-rank p99s, with the number of windows.  Every window's p99
// has at least window/100 samples beyond it.  A slow second of the host
// then moves one window's p99, not the reported figure.
func windowedP99(xs []float64, window int) (float64, int) {
	k := len(xs) / window
	if k < 1 {
		return 0, 0
	}
	per := make([]float64, k)
	for i := range k {
		lo, hi := i*len(xs)/k, (i+1)*len(xs)/k
		per[i], _, _ = quantile(append([]float64(nil), xs[lo:hi]...), 0.99)
	}
	return median(per), k
}
