package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"time"

	"rex"
	"rex/internal/obs"
)

// The serve-zipf workload: Zipf-popular pairs from a pool larger than
// the replicas' result caches, every request carrying a fixed budget_ms,
// sent open loop at one fixed rate below saturation over two client
// connections to the router, with no writes. The router hop, HTTP,
// admission, the result cache and single-flight dominate; measure runs
// only on misses, so a measure change shows in rex.truncated_share
// rather than in the median latency.

// readRec is one /explain request through the router.
type readRec struct {
	Pair    pair
	ReqID   string
	Traced  bool // asked the replica for its rex.WithTrace report
	T       timing
	Code    int
	Replica string // X-Rex-Replica: the replica whose answer won
	Err     error
	body    []byte

	// Decoded off the clock.
	Truncated   bool
	Generation  uint64
	Fingerprint string
	Hash        [sha256.Size]byte // of the re-encoded result, trace removed
	Report      *obs.Report       // the replica's rex.WithTrace report, traced reads only
}

func (r *readRec) ok() bool { return r.Err == nil && r.Code == http.StatusOK }

// read performs one request and keeps the raw body for decode.
func read(c *http.Client, u, reqID string, rec *readRec) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		rec.Err = err
		return
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.Do(req)
	if err != nil {
		rec.Err = err
		return
	}
	defer resp.Body.Close()
	rec.Code = resp.StatusCode
	rec.Replica = resp.Header.Get("X-Rex-Replica")
	rec.body, rec.Err = io.ReadAll(resp.Body)
}

// decode parses an answer and fingerprints its result.
func (r *readRec) decode() error {
	defer func() { r.body = nil }()
	if !r.ok() {
		return nil
	}
	var env struct {
		Result      *rex.Result `json:"result"`
		Truncated   bool        `json:"truncated"`
		Generation  uint64      `json:"generation"`
		Fingerprint string      `json:"fingerprint"`
	}
	if err := json.Unmarshal(r.body, &env); err != nil {
		return fmt.Errorf("decode answer %s: %w", r.ReqID, err)
	}
	if env.Result == nil {
		return fmt.Errorf("answer %s has no result", r.ReqID)
	}
	r.Truncated, r.Generation, r.Fingerprint = env.Truncated, env.Generation, env.Fingerprint
	r.Report, env.Result.Trace = env.Result.Trace, nil
	b, err := json.Marshal(env.Result)
	if err != nil {
		return err
	}
	r.Hash = sha256.Sum256(b)
	return nil
}

// runReads sends reqs open loop at rate over conns connections. With
// traced set, every other request asks the replica for its trace.
func runReads(c *http.Client, f *fleet, reqs []pair, rate float64, conns int, budgetMS int64, traced bool, idPrefix string) []readRec {
	recs := make([]readRec, len(reqs))
	interval := time.Duration(float64(time.Second) / rate)
	tm := openLoop(time.Now().Add(5*time.Millisecond), interval, len(reqs), conns, func(i int) {
		q := url.Values{"start": {reqs[i].Start}, "end": {reqs[i].End}, "budget_ms": {strconv.FormatInt(budgetMS, 10)}}
		recs[i].Traced = traced && i%2 == 0
		if recs[i].Traced {
			q.Set("trace", "1")
		}
		recs[i].Pair = reqs[i]
		recs[i].ReqID = idPrefix + strconv.Itoa(i)
		read(c, f.url+"/explain?"+q.Encode(), recs[i].ReqID, &recs[i])
	})
	for i := range recs {
		recs[i].T = tm[i]
	}
	return recs
}

// startServing sets up a fleet as timeSetups does — starting from the
// snapshot each time — and keeps the last one.
func startServing(e *env, in *kbInput, durable bool) (*fleet, time.Duration, []float64, error) {
	var loads []float64
	f, setup, err := timeSetups(e, e.P.Setups, func() (*fleet, error) {
		dir, err := os.MkdirTemp(e.WorkDir, "fleet-")
		if err != nil {
			return nil, err
		}
		f, err := startFleet(fleetConfig{
			Snapshot: in.Snapshot,
			Options:  rex.Options{CacheSize: e.P.CacheSize},
			Durable:  durable,
			Dir:      dir,
			Traced:   e.Trace,
		})
		if err != nil {
			return nil, err
		}
		loads = append(loads, f.loadMS...)
		return f, nil
	}, (*fleet).close)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("set-up: %w", err)
	}
	// The snapshot loads of the timed set-ups only.
	return f, setup, loads[len(loads)-fleetSize*e.P.Setups:], nil
}

// readSummary is the end-to-end view of a window of reads.
type readSummary struct {
	Sent, Answered, Good, Shed, Failed, Truncated int
	Latency                                       latencySummary
	FailedBy                                      map[string]int // failed reads by status or error
}

// summarizeReads scores a window: a read is good when it was answered
// 200, untruncated, at a generation and fingerprint validFP accepts,
// within the latency limit.
func summarizeReads(recs []readRec, limitMS float64, validFP func(gen uint64, fp string) bool) readSummary {
	s := readSummary{FailedBy: map[string]int{}}
	var lat []float64
	for i := range recs {
		r := &recs[i]
		s.Sent++
		switch {
		case r.ok():
			s.Answered++
			l := r.T.latencyMS()
			lat = append(lat, l)
			if r.Truncated {
				s.Truncated++
			}
			// A truncated answer is the best ranking found within the
			// budget, not the exhaustive one: it is a miss.
			if !r.Truncated && l <= limitMS && validFP(r.Generation, r.Fingerprint) {
				s.Good++
			}
		case r.Err == nil && r.Code == http.StatusTooManyRequests:
			s.Shed++
		case r.Err != nil:
			s.Failed++
			s.FailedBy[r.Err.Error()]++
		default:
			s.Failed++
			s.FailedBy[fmt.Sprintf("status %d", r.Code)]++
		}
	}
	s.Latency = summarize(lat)
	return s
}

func (s readSummary) log(e *env, limitMS float64) {
	e.logf("accounting reads: attempted %d, succeeded %d, failed %d, shed %d, truncated %d of %d answered (%.4f); goodput %d/%d attempted, untruncated within %.0fms",
		s.Sent, s.Answered, s.Failed, s.Shed, s.Truncated, s.Answered, ratio(float64(s.Truncated), float64(s.Answered)),
		s.Good, s.Sent, limitMS)
	if s.Failed > 0 {
		e.logf("failed reads by cause: %v", s.FailedBy)
	}
	e.logf("latency reads: %s from due time", s.Latency)
}

// figures logs the window's user-visible figures.
func (s readSummary) figures(e *env) {
	e.figure("latency_p50_ms", s.Latency.P50, "ms")
	e.figure("latency_tail_ms", s.Latency.Tail, "ms")
	e.figure("truncated_share", ratio(float64(s.Truncated), float64(s.Answered)), "share")
}

// userLayers are the user-visible figures of a window that vary too
// much across seeds to gate: client latency through the router and the
// share of answers the budget cut short.
func (s readSummary) userLayers(L map[string]float64) {
	L["cluster.latency_p50_ms"], L["cluster.latency_tail_ms"] = s.Latency.P50, s.Latency.Tail
	L["rex.truncated_share"] = ratio(float64(s.Truncated), float64(s.Answered))
}

// traceOverhead compares the mean latency of the window's traced reads
// with that of its untraced ones: a traced window alternates the two,
// so both halves see the same fleet, time and pair mix.
func traceOverhead(e *env, reads []readRec) float64 {
	var sum, n [2]float64
	for i := range reads {
		if r := &reads[i]; r.ok() {
			k := 0
			if r.Traced {
				k = 1
			}
			sum[k] += r.T.latencyMS()
			n[k]++
		}
	}
	untraced, traced := ratio(sum[0], n[0]), ratio(sum[1], n[1])
	e.logf("trace overhead: mean read latency traced %.3fms (%.0f reads) vs untraced %.3fms (%.0f reads)", traced, n[1], untraced, n[0])
	return ratio(traced, untraced) - 1
}

const serveConns = 2

// windowReqPrefix starts the X-Request-Id of every read in a measured
// window; warm-up reads use "w".
const windowReqPrefix = "q"

// servingInputs generates the KB and the Zipf-popular pair pool of a
// serving workload.
func servingInputs(e *env) (*kbInput, *zipfPool, error) {
	in, err := prepareKB(e)
	if err != nil {
		return nil, nil, err
	}
	pool := bucketedPairs(in.G, e.P.PerBucket, e.Seed+1)
	if len(pool) <= fleetSize*e.P.CacheSize || len(pool) < e.P.Tenants {
		return nil, nil, fmt.Errorf("pair pool of %d is not larger than the fleet's result caches (%d)", len(pool), fleetSize*e.P.CacheSize)
	}
	e.logf("pool: %d distinct pairs over %d tenants, Zipf s=%.2f, %d result-cache entries per replica", len(pool), e.P.Tenants, e.P.ZipfS, e.P.CacheSize)
	return in, newZipfPool(pool, e.P.ZipfS, e.P.Tenants), nil
}

func runServeZipf(e *env) (*outcome, error) {
	in, zp, err := servingInputs(e)
	if err != nil {
		return nil, err
	}
	out := newOutcome()

	f, setup, loads, err := startServing(e, in, false)
	if err != nil {
		return nil, err
	}
	defer f.close()
	c := newClient(serveConns)
	defer c.CloseIdleConnections()
	warm := zp.stream(requestsFor(e.P.Rate, e.P.WarmupS), e.Seed+4)
	runReads(c, f, warm, e.P.Rate, serveConns, e.P.BudgetMS, false, "w")
	reqs := zp.stream(requestsFor(e.P.Rate, e.Seconds), e.Seed+3)
	rc0, err := f.routerCounters(c)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	heap := startHeapSampler()
	reads := runReads(c, f, reqs, e.P.Rate, serveConns, e.P.BudgetMS, e.Trace, windowReqPrefix)
	heapMB := heap.Stop()

	for i := range reads {
		if err := reads[i].decode(); err != nil {
			out.check(false, "%v", err)
		}
	}
	sum := summarizeReads(reads, e.P.LimitMS, func(_ uint64, fp string) bool { return fp == in.Fingerprint })
	sum.log(e, e.P.LimitMS)
	out.Attempted, out.Failed = sum.Sent, sum.Sent-sum.Answered
	out.E2E["setup_s"] = setup.Seconds()
	out.E2E["goodput_share"] = ratio(float64(sum.Good), float64(sum.Sent))
	sum.figures(e)
	e.figure("heap_peak_mb", heapMB, "MB")
	e.logf("setup: median %.1fms over %d fleet set-ups", ms(setup), e.P.Setups)
	if e.Trace {
		L := out.Layer
		L["kb.load_ms"] = median(loads)
		sum.userLayers(L)
		L["trace.overhead_share"] = traceOverhead(e, reads)
		if err := serveLayers(L, f, c, reads, rc0); err != nil {
			return nil, err
		}
	}

	for i := range reads {
		r := &reads[i]
		out.check(!r.ok() || r.Fingerprint == in.Fingerprint, "read %s answered at fingerprint %s, KB is %s", r.ReqID, r.Fingerprint, in.Fingerprint)
	}
	if err := checkAgainstReference(e, in, reads, out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkAgainstReference recomputes every pair answered untruncated on an
// in-process explainer over the same snapshot, off the clock, and
// requires the served result to be identical.
func checkAgainstReference(e *env, in *kbInput, reads []readRec, out *outcome) error {
	got := map[rex.Pair][][sha256.Size]byte{}
	var pairs []rex.Pair
	for i := range reads {
		r := &reads[i]
		if !r.ok() || r.Truncated {
			continue
		}
		p := rex.Pair{Start: r.Pair.Start, End: r.Pair.End}
		if _, ok := got[p]; !ok {
			pairs = append(pairs, p)
		}
		got[p] = append(got[p], r.Hash)
	}
	k, err := rex.LoadKB(in.Snapshot)
	if err != nil {
		return err
	}
	ref, err := rex.NewExplainer(k, rex.Options{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	mismatches := 0
	for _, br := range ref.BatchExplain(context.Background(), pairs, rex.BatchOptions{Concurrency: 2}) {
		if br.Err != nil {
			out.check(false, "reference explain %s/%s: %v", br.Pair.Start, br.Pair.End, br.Err)
			continue
		}
		b, err := json.Marshal(br.Result)
		if err != nil {
			return err
		}
		h := sha256.Sum256(b)
		for _, g := range got[br.Pair] {
			if g != h {
				mismatches++
			}
		}
	}
	out.check(mismatches == 0, "%d untruncated answers differ from the in-process reference", mismatches)
	e.logf("check: %d distinct untruncated pairs recomputed in-process in %.1fs; %d mismatching answers",
		len(pairs), time.Since(t0).Seconds(), mismatches)
	return nil
}
