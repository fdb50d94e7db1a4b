package main

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// timing is one open-loop request: when it was due, when a connection
// took it, and when its answer was read. Latency counts from Due, so a
// stall also charges the requests queued behind it.
type timing struct {
	Due, Sent, Done time.Time
}

func (t timing) latencyMS() float64 { return ms(t.Done.Sub(t.Due)) }
func (t timing) lagMS() float64     { return ms(t.Sent.Sub(t.Due)) }

// openLoop issues n requests due at start, start+interval, ... over
// conns goroutines — the client's connections. A request that finds
// every connection busy waits for one; the schedule does not slip.
func openLoop(start time.Time, interval time.Duration, n, conns int, do func(i int)) []timing {
	tm := make([]timing, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				tm[i].Sent = time.Now()
				do(i)
				tm[i].Done = time.Now()
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		tm[i].Due = due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return tm
}

// requestsFor is the request count of an open-loop window.
func requestsFor(rate, seconds float64) int {
	return max(1, int(math.Round(rate*seconds)))
}

// zipfPool models how a set of tenants asks for pairs: the pool is
// dealt round-robin to the tenants, each tenant sends an equal share of
// the requests, and a tenant asks its pair at rank r with weight
// 1/(r+1)^s. Ranks follow the pool's order, which bucketedPairs
// interleaves by connectedness bucket. With one tenant, the few pairs
// at the head of the ranking carry most of the traffic, and whether
// they happen to be expensive decides a seed's truncated share; with T
// tenants, the variance that adds across seeds falls by T while every
// tenant keeps its Zipf skew.
type zipfPool struct {
	tenants [][]pair
	cum     [][]float64
}

func newZipfPool(pool []pair, s float64, tenants int) *zipfPool {
	z := &zipfPool{tenants: make([][]pair, tenants), cum: make([][]float64, tenants)}
	for i, p := range pool {
		z.tenants[i%tenants] = append(z.tenants[i%tenants], p)
	}
	for t, pairs := range z.tenants {
		total := 0.0
		for r := range pairs {
			total += math.Pow(float64(r+1), -s)
			z.cum[t] = append(z.cum[t], total)
		}
	}
	return z
}

// stream makes a stream of n requests with the given seed. It samples
// systematically: every pair is asked its expected number of times
// under the popularity weights, give or take one, and the order is
// shuffled. Independent draws would add a sampling noise of about
// 2.5 % to a 700-read window's truncated share; this way only which
// pairs the seed puts at the popular ranks varies.
func (z *zipfPool) stream(n int, seed int64) []pair {
	rng := rand.New(rand.NewSource(seed))
	out := make([]pair, 0, n)
	step := 1 / float64(n)
	next, acc := rng.Float64()*step, 0.0
	var last pair
	for t, pairs := range z.tenants {
		cum := z.cum[t]
		total, prev := cum[len(cum)-1], 0.0
		for r, c := range cum {
			acc += (c - prev) / total / float64(len(z.tenants))
			prev = c
			last = pairs[r]
			for next < acc && len(out) < n {
				out = append(out, last)
				next += step
			}
		}
	}
	for len(out) < n { // rounding: the weights sum to 1 only within an ulp
		out = append(out, last)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
