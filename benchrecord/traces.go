package main

import (
	"time"

	"rex/internal/obs"
)

// obsTotals sums the per-query rex.WithTrace reports of a run: the
// engine's own counters and stage totals, read where the benchmark has
// no call boundary of its own to time.
type obsTotals struct {
	Reports              int
	CacheHits            int
	Expansions, Merges   int64
	MemoHits, MemoMisses int64
	WalkHits, WalkMisses int64
	Stages               map[string]time.Duration
	Calls                map[string]int64
}

func (t *obsTotals) add(rep *obs.Report) {
	if rep == nil {
		return
	}
	t.Reports++
	if rep.CacheHit {
		t.CacheHits++
	}
	t.Expansions += rep.Expansions
	t.Merges += rep.Merges
	t.MemoHits += rep.MemoHits
	t.MemoMisses += rep.MemoMisses
	t.WalkHits += rep.WalkCacheHits
	t.WalkMisses += rep.WalkCacheMisses
	if t.Stages == nil {
		t.Stages, t.Calls = map[string]time.Duration{}, map[string]int64{}
	}
	for _, s := range rep.Stages {
		t.Stages[s.Stage] += time.Duration(s.DurationMS * float64(time.Millisecond))
		t.Calls[s.Stage] += s.Calls
	}
}

// fill sets the counter metrics the reports carry, with per-query
// variants over queries.
func (t *obsTotals) fill(L map[string]float64, queries int) {
	perQuery(L, queries, "enumerate.expansions", float64(t.Expansions))
	perQuery(L, queries, "pattern.merges", float64(t.Merges))
	L["measure.memo_hit_ratio"] = ratio(float64(t.MemoHits), float64(t.MemoHits+t.MemoMisses))
	L["measure.memo_misses"] = float64(t.MemoMisses)
	L["measure.walk_hit_ratio"] = ratio(float64(t.WalkHits), float64(t.WalkHits+t.WalkMisses))
	L["measure.walk_misses"] = float64(t.WalkMisses)
}
