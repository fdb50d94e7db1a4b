package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rex"
	"rex/internal/kb"
	"rex/internal/kbgen"
)

// The cold-tail workload: distinct connectedness-bucketed pairs, each
// asked once, through one in-process rex.Explainer with default options
// and no result cache, from one closed-loop client, unbudgeted. No HTTP,
// router, WAL or result cache is involved, so it isolates the query
// pipeline, where measure does almost all the work.

// pairDeadline aborts a cold query that runs this long. It bounds a
// run's length: a rare pair takes tens of seconds cold, and a traced run
// asks every pair twice. An aborted query counts as a failed operation
// and a goodput miss, not as a failed check.
const pairDeadline = 40 * time.Second

// explainCold asks one pair under pairDeadline.
func explainCold(ex *rex.Explainer, p pair) (*rex.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), pairDeadline)
	defer cancel()
	return ex.ExplainContext(ctx, p.Start, p.End)
}

// pair is one generated query.
type pair struct {
	Start, End string
	Bucket     kb.ConnBucket
}

// bucketedPairs samples distinct pairs with kbgen.SamplePairs and
// interleaves the connectedness buckets (low, medium, high, low, ...),
// so every prefix of the list — every time window — asks the same mix.
func bucketedPairs(g *kb.Graph, perBucket int, seed int64) []pair {
	byBucket := map[kb.ConnBucket][]pair{}
	seen := map[[2]kb.NodeID]bool{}
	for _, p := range kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: perBucket, Seed: seed}) {
		key := [2]kb.NodeID{p.Start, p.End}
		if seen[key] {
			continue
		}
		seen[key] = true
		byBucket[p.Bucket] = append(byBucket[p.Bucket], pair{g.NodeName(p.Start), g.NodeName(p.End), p.Bucket})
	}
	var out []pair
	for i := 0; ; i++ {
		added := false
		for _, b := range []kb.ConnBucket{kb.ConnLow, kb.ConnMedium, kb.ConnHigh} {
			if i < len(byBucket[b]) {
				out = append(out, byBucket[b][i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

func runColdTail(e *env) (*outcome, error) {
	in, err := prepareKB(e)
	if err != nil {
		return nil, err
	}
	pairs := bucketedPairs(in.G, e.P.PerBucket, e.Seed+1)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no pairs sampled")
	}
	out := newOutcome()
	var loads []float64
	ex, setup, err := timeSetups(e, e.P.Setups, func() (*rex.Explainer, error) {
		t0 := time.Now()
		k, err := rex.LoadKB(in.Snapshot)
		if err != nil {
			return nil, err
		}
		loads = append(loads, ms(time.Since(t0)))
		return rex.NewExplainer(k, rex.Options{})
	}, func(*rex.Explainer) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	loads = loads[len(loads)-e.P.Setups:] // the timed set-ups only
	out.E2E["setup_s"] = setup.Seconds()
	out.Layer["kb.load_ms"] = median(loads)
	e.logf("setup: median %.1fms over %d set-ups (snapshot load median %.1fms)", ms(setup), e.P.Setups, median(loads))
	if e.Trace {
		return coldTraced(e, in, pairs, ex, out)
	}

	heap := startHeapSampler()
	var (
		lat     []float64
		results []*rex.Result
		good    int
	)
	start := time.Now()
	deadline := start.Add(e.window())
	for _, p := range pairs {
		if !time.Now().Before(deadline) {
			break
		}
		t0 := time.Now()
		res, err := explainCold(ex, p)
		d := ms(time.Since(t0))
		lat = append(lat, d)
		results = append(results, res)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			out.Failed++
			e.logf("aborted: %s/%s ran past %v", p.Start, p.End, pairDeadline)
		case err != nil:
			out.Failed++
			out.check(false, "explain %s/%s: %v", p.Start, p.End, err)
		case res.Truncated:
			out.Failed++
			out.check(false, "unbudgeted explain %s/%s truncated", p.Start, p.End)
		case d <= e.P.LimitMS:
			good++
		}
	}
	elapsed := time.Since(start)
	heapMB := heap.Stop()
	out.Attempted = len(lat)
	if len(lat) == len(pairs) {
		e.logf("note: all %d sampled pairs answered before the window closed", len(pairs))
	}
	eps, sum := coldSummary(e, "cold", lat, elapsed)
	e.figure("explains_per_s", eps, "1/s")
	e.figure("latency_p50_ms", sum.P50, "ms")
	e.figure("latency_tail_ms", sum.Tail, "ms")
	e.figure("heap_peak_mb", heapMB, "MB")
	out.E2E["goodput_share"] = ratio(float64(good), float64(len(lat)))
	e.logf("accounting: attempted %d, succeeded %d, failed %d (errors and aborts past %v), truncated 0; goodput %d/%d attempted within %.0fms",
		len(lat), len(lat)-out.Failed, out.Failed, pairDeadline, good, len(lat), e.P.LimitMS)

	// Output check, off the clock: the first pairs re-run through the
	// layer-by-layer pipeline on a fresh graph and evaluator must rank
	// exactly what Explain returned.
	pl, err := loadPipeline(in.Snapshot)
	if err != nil {
		return nil, err
	}
	for i := 0; i < min(e.P.CheckPairs, len(results)); i++ {
		if results[i] == nil {
			continue
		}
		want, _, err := pl.explain(context.Background(), nil, "", pairs[i].Start, pairs[i].End)
		if err != nil {
			out.check(false, "pipeline %s/%s: %v", pairs[i].Start, pairs[i].End, err)
			continue
		}
		if err := sameRanking(results[i], want); err != nil {
			out.check(false, "pair %s/%s: %v", pairs[i].Start, pairs[i].End, err)
		}
	}
	e.logf("check: %d/%d pairs re-ranked layer by layer; %d check failures", min(e.P.CheckPairs, len(results)), len(results), len(out.Checks))
	return out, nil
}

// coldSummary reports a closed-loop pass of Explain calls: throughput
// over the pass and the latency distribution.
func coldSummary(e *env, phase string, lat []float64, elapsed time.Duration) (float64, latencySummary) {
	eps, sum := float64(len(lat))/elapsed.Seconds(), summarize(lat)
	e.logf("%s: %d distinct pairs in %.2fs = %.3f explains/s; latency %s", phase, len(lat), elapsed.Seconds(), eps, sum)
	return eps, sum
}

// coldTraced runs the pipeline over the pairs for the window twice
// over, pair by pair: traced, and untraced on its own graph and
// evaluator, which is the base of the tracing overhead. Which of the
// two goes first alternates, so neither profits from the other's warm
// caches more often. It then asks the same pairs of the untraced, still
// cold explainer: that pass is the output check.
func coldTraced(e *env, in *kbInput, pairs []pair, ex *rex.Explainer, out *outcome) (*outcome, error) {
	pl, err := loadPipeline(in.Snapshot)
	if err != nil {
		return nil, err
	}
	base, err := loadPipeline(in.Snapshot)
	if err != nil {
		return nil, err
	}
	const detPairs = 6
	var (
		log             spanLog
		ranked          [][]rankedOut
		wall            time.Duration // traced query spans, for the coverage line
		tracedT, plainT time.Duration // both passes timed around the call
		expl            int
		rep             obsTotals
		det             string
	)
	deadline := time.Now().Add(e.window())
	for i, p := range pairs {
		if !time.Now().Before(deadline) {
			break
		}
		traced := func() {
			ctx, cancel := context.WithTimeout(context.Background(), pairDeadline)
			defer cancel()
			t0 := time.Now()
			r, qt, err := pl.explain(ctx, &log, fmt.Sprintf("q%d", i), p.Start, p.End)
			tracedT += time.Since(t0)
			wall += qt.Wall
			if err != nil {
				out.Failed++
				if errors.Is(err, context.DeadlineExceeded) {
					e.logf("aborted: %s/%s ran past %v", p.Start, p.End, pairDeadline)
				} else {
					out.check(false, "pipeline %s/%s: %v", p.Start, p.End, err)
				}
				ranked = append(ranked, nil)
				return
			}
			ranked = append(ranked, r)
			expl += qt.Explanations
			rep.add(qt.Report)
		}
		plain := func() {
			ctx, cancel := context.WithTimeout(context.Background(), pairDeadline)
			defer cancel()
			t0 := time.Now()
			base.explain(ctx, nil, "", p.Start, p.End) //nolint:errcheck // timing only; the traced pass is checked
			plainT += time.Since(t0)
		}
		if i%2 == 0 {
			traced()
			plain()
		} else {
			plain()
			traced()
		}
		if i == detPairs-1 {
			det = fmt.Sprintf("expansions=%d explanations=%d merges=%d memo_misses=%d walk_misses=%d table_cells=%d",
				rep.Expansions, expl, rep.Merges, rep.MemoMisses, rep.WalkMisses, pl.ev.MemoStats().TableCells)
		}
	}
	n := len(ranked)
	out.Attempted = n
	if det != "" {
		e.logf("deterministic counters over the first %d pairs: %s", detPairs, det)
	}

	// Untraced Explain over the same pairs: the output check.
	var lat []float64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p := pairs[i]
		q0 := time.Now()
		res, err := explainCold(ex, p)
		lat = append(lat, ms(time.Since(q0)))
		if ranked[i] == nil || errors.Is(err, context.DeadlineExceeded) {
			continue
		}
		if err != nil {
			out.check(false, "explain %s/%s: %v", p.Start, p.End, err)
			continue
		}
		if err := sameRanking(res, ranked[i]); err != nil {
			out.check(false, "pair %s/%s: %v", p.Start, p.End, err)
		}
	}
	untraced := time.Since(t0)
	e.logf("check: %d pairs, traced pipeline vs untraced Explain; %d check failures", n, len(out.Checks))
	eps, sum := coldSummary(e, "untraced Explain", lat, untraced)
	out.Layer["rex.explains_per_s"], out.Layer["rex.explain_p50_ms"], out.Layer["rex.explain_tail_ms"] = eps, sum.P50, sum.Tail

	self := log.selfTimes()
	L := out.Layer
	L["enumerate.self_ms"] = ms(self["enumerate"])
	L["pattern.merge_ms"] = ms(self["merge"])
	L["rank.self_ms"] = ms(self["rank"])
	L["measure.self_ms"] = ms(self["measure"])
	L["match.ms"] = ms(self["match"])
	L["trace.unattributed_ms"] = ms(self["query"])
	L["rank.pruned_share"] = ratio(float64(pl.m.pruned), float64(pl.m.calls))
	mst := pl.ev.MemoStats()
	L["measure.table_cells"] = float64(mst.TableCells)
	L["measure.prefix_nodes"] = float64(mst.PrefixNodes)
	L["trace.overhead_share"] = ratio(float64(tracedT), float64(plainT)) - 1
	rep.fill(L, n)
	perQuery(L, n, "enumerate.explanations", float64(expl))
	perQuery(L, n, "measure.calls", float64(pl.m.calls))

	e.logf("coverage: traced query wall %.1fms = enumerate.self %.1f + merge %.1f + rank.self %.1f + measure.self %.1f + match %.1f + unattributed %.1f (%.2f%%)",
		ms(wall), ms(self["enumerate"]), ms(self["merge"]), ms(self["rank"]), ms(self["measure"]), ms(self["match"]),
		ms(self["query"]), 100*ratio(ms(self["query"]), ms(wall)))
	for name, d := range self {
		out.check(d >= 0, "span %s has negative self time %v: its children overlap", name, d)
	}
	e.logf("trace overhead: pipeline traced %.1fms vs untraced %.1fms over the same %d pairs", ms(tracedT), ms(plainT), n)
	return out, nil
}

// perQuery sets a count and its per-query variant.
func perQuery(L map[string]float64, n int, name string, v float64) {
	L[name] = v
	L[name+"_per_query"] = ratio(v, float64(n))
}
