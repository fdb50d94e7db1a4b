package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted samples by
// linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	switch len(sorted) {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 50)
}

// latencySummary is a timing distribution reported as its median and
// its tail: the highest percentile with at least ten samples beyond it.
type latencySummary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // the percentile Tail stands for
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

func summarize(xs []float64) latencySummary {
	s := slices.Clone(xs)
	slices.Sort(s)
	sum := latencySummary{N: len(s), P50: percentile(s, 50)}
	switch {
	case len(s) > tailBeyond:
		sum.Tail = s[len(s)-1-tailBeyond]
		sum.TailPct = 100 * float64(len(s)-tailBeyond) / float64(len(s))
	case len(s) > 0:
		// Too few samples for a tail with ten beyond it: the maximum is
		// the only honest figure, and TailPct says so.
		sum.Tail = s[len(s)-1]
		sum.TailPct = 100
	}
	return sum
}

func (l latencySummary) String() string {
	return fmt.Sprintf("p50 %.3fms, p%.2f %.3fms over %d samples", l.P50, l.TailPct, l.Tail, l.N)
}

// ratio divides, treating an empty base as zero rather than NaN, so an
// unexercised layer reports 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// heapSampler tracks the peak live Go heap — the heap the last garbage
// collection found reachable — between start and stop, sampled every
// 5ms through runtime/metrics, which does not stop the world. Live heap
// rather than allocated bytes, so the figure does not depend on when
// collections happen to run.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
		}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		read()
		for {
			select {
			case <-h.stop:
				read()
				h.done <- peak
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	return float64(<-h.done) / (1 << 20)
}
