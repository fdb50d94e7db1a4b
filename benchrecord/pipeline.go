package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"rex"
	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/measure"
	"rex/internal/obs"
	"rex/internal/pattern"
	"rex/internal/rank"
)

// defaultMeasure is the measure rex.Options selects when none is named.
const defaultMeasure = "size+local-dist"

// pipeline runs the query path of a default rex.Explainer layer by
// layer — enumerate.ExplanationsBudgeted, then
// rank.TopKDistributionalBudgeted over a timed measure.Limited — so the
// benchmark can hold a span around each layer call. The output check
// compares it with rex.Explainer.Explain, which catches any drift
// between this copy of the wiring and the facade's.
type pipeline struct {
	g    *kb.Graph
	cfg  enumerate.Config
	ev   *measure.Evaluator
	m    *timedMeasure
	topK int
}

func newPipeline(g *kb.Graph) (*pipeline, error) {
	m, err := rex.MeasureByName(defaultMeasure)
	if err != nil {
		return nil, err
	}
	lm, ok := m.(measure.Limited)
	if !ok || m.AntiMonotonic() {
		return nil, fmt.Errorf("measure %s no longer ranks through rank.TopKDistributionalBudgeted", defaultMeasure)
	}
	return &pipeline{
		g: g,
		cfg: enumerate.Config{
			MaxPatternSize: 5,
			PathAlg:        enumerate.PathPrioritized,
			UnionAlg:       enumerate.UnionPrune,
			Pool:           enumerate.NewPool(),
		},
		ev:   measure.NewEvaluator(g),
		m:    &timedMeasure{Limited: lm},
		topK: 10,
	}, nil
}

// loadPipeline builds a pipeline over its own graph, loaded from the
// snapshot, with a fresh evaluator.
func loadPipeline(snapshot string) (*pipeline, error) {
	g, err := kb.LoadBinary(snapshot)
	if err != nil {
		return nil, err
	}
	return newPipeline(g)
}

// timedMeasure wraps the measure handed to rank, timing every
// ScoreWithLimit call and counting the candidates the LIMIT-p threshold
// cut. The pipeline is driven by one goroutine, so plain fields do.
type timedMeasure struct {
	measure.Limited
	busy          time.Duration
	calls, pruned int64
}

func (t *timedMeasure) ScoreWithLimit(ctx *measure.Context, ex *pattern.Explanation, threshold measure.Score) (measure.Score, bool) {
	t0 := time.Now()
	s, ok := t.Limited.ScoreWithLimit(ctx, ex, threshold)
	t.busy += time.Since(t0)
	t.calls++
	if !ok && threshold != nil {
		t.pruned++
	}
	return s, ok
}

// rankedOut is the part of a ranked explanation the output check
// compares: the pattern, its lexicographic score and its instance count.
type rankedOut struct {
	Pattern   string
	Score     []float64
	Instances int
}

// queryTrace is what one traced pipeline query reports. Wall is set even
// when the query fails, since its spans stay in the log.
type queryTrace struct {
	Wall         time.Duration
	Explanations int
	Report       *obs.Report
}

// explain answers one pair under ctx. With log non-nil it records the
// query's spans: query → enumerate → merge, query → rank → measure →
// match, where merge and match are derived from the rex.WithTrace stage
// totals.
func (p *pipeline) explain(ctx context.Context, log *spanLog, req, start, end string) ([]rankedOut, queryTrace, error) {
	var qt queryTrace
	s, t := p.g.NodeByName(start), p.g.NodeByName(end)
	if s == kb.InvalidNode || t == kb.InvalidNode {
		return nil, qt, fmt.Errorf("unknown entity in pair %s/%s", start, end)
	}
	var tr *obs.Trace
	if log != nil {
		tr = obs.NewTrace()
		ctx = obs.NewContext(ctx, tr)
	}
	root, enum, rk := -1, -1, -1
	mBefore := p.m.busy
	if log != nil {
		root = log.begin(req, "query", -1)
		enum = log.begin(req, "enumerate", root)
	}
	es, etrunc, err := enumerate.ExplanationsBudgeted(ctx, p.g, s, t, p.cfg)
	if log != nil {
		log.end(enum)
	}
	if err != nil {
		if log != nil {
			log.end(root)
			qt.Wall = log.dur(root)
		}
		return nil, qt, err
	}
	if log != nil {
		rk = log.begin(req, "rank", root)
	}
	mctx := &measure.Context{G: p.g, Start: s, End: t, Ctx: ctx, Eval: p.ev}
	ranked, rtrunc, err := rank.TopKDistributionalBudgeted(ctx, mctx, es, p.m, p.topK, time.Time{})
	if log != nil {
		log.end(rk)
		log.end(root)
		qt.Wall = log.dur(root)
	}
	if err != nil {
		return nil, qt, err
	}
	if etrunc || rtrunc {
		return nil, qt, fmt.Errorf("unbudgeted pipeline truncated %s/%s", start, end)
	}
	out := make([]rankedOut, len(ranked))
	for i, r := range ranked {
		out[i] = rankedOut{Pattern: r.Ex.P.String(), Score: slices.Clone(r.Score), Instances: r.Ex.Count()}
	}
	qt.Explanations = len(es)
	if log != nil {
		rep := tr.Report()
		qt.Report = rep
		st := stageTotals(rep)
		log.add(req, "merge", enum, st["merge"])
		meas := log.add(req, "measure", rk, p.m.busy-mBefore)
		log.add(req, "match", meas, st["match"])
	}
	return out, qt, nil
}

// stageTotals indexes a rex.WithTrace report's stage durations by name.
func stageTotals(rep *obs.Report) map[string]time.Duration {
	out := map[string]time.Duration{}
	if rep == nil {
		return out
	}
	for _, s := range rep.Stages {
		out[s.Stage] += time.Duration(s.DurationMS * float64(time.Millisecond))
	}
	return out
}

// sameRanking reports whether an Explain result lists exactly the
// pipeline's explanations, scores and order.
func sameRanking(res *rex.Result, want []rankedOut) error {
	if res.Truncated {
		return fmt.Errorf("unbudgeted Explain truncated")
	}
	if len(res.Explanations) != len(want) {
		return fmt.Errorf("%d explanations, pipeline ranked %d", len(res.Explanations), len(want))
	}
	for i, ex := range res.Explanations {
		w := want[i]
		if ex.Pattern != w.Pattern || !slices.Equal(ex.Score, w.Score) || ex.NumInstances != w.Instances {
			return fmt.Errorf("rank %d: Explain %s %v (%d instances), pipeline %s %v (%d instances)",
				i+1, ex.Pattern, ex.Score, ex.NumInstances, w.Pattern, w.Score, w.Instances)
		}
	}
	return nil
}
