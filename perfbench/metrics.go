package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sample is one latency observation stamped with its offset into a phase.
type sample struct {
	at, ms float64
}

// windowed splits a phase of secs seconds into k equal windows and returns
// the median over the windows of each window's q-quantile. A burst of
// interference on the machine moves one window, not the figure.
func windowed(ss []sample, secs float64, k int, q float64) float64 {
	buckets := make([][]float64, k)
	for _, s := range ss {
		i := min(max(int(s.at/secs*float64(k)), 0), k-1)
		buckets[i] = append(buckets[i], s.ms)
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) > 0 {
			qs = append(qs, quantile(b, q))
		}
	}
	return median(qs)
}

// Runtime metrics read through runtime/metrics, which does not stop the
// world (runtime.ReadMemStats does).
const (
	mHeap       = "/memory/classes/heap/objects:bytes"
	mGoroutines = "/sched/goroutines:goroutines"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
)

// goStats is a point-in-time read of the runtime counters.
type goStats struct {
	gcCycles, allocBytes uint64
	gcPause              float64 // seconds, summed from the pause histogram
}

func readGoStats() goStats {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mAllocBytes}, {Name: mGCPauses}}
	metrics.Read(s)
	out := goStats{gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			// Each pause counts at its bucket's lower bound (the upper one
			// may be +Inf).
			out.gcPause += float64(n) * max(h.Buckets[i], 0)
		}
	}
	return out
}

// sampler polls the live heap and the goroutine count for their peaks.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	heapPeak, goroutPeak uint64 // written by the sampling goroutine until done closes
}

func startSampler(every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		buf := []metrics.Sample{{Name: mHeap}, {Name: mGoroutines}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(buf)
			s.heapPeak = max(s.heapPeak, buf[0].Value.Uint64())
			s.goroutPeak = max(s.goroutPeak, buf[1].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peaks.
func (s *sampler) finish() (heap, goroutines uint64) {
	close(s.stop)
	<-s.done
	return s.heapPeak, s.goroutPeak
}
