package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"rex"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/live"
)

// The ingest experiment measures the write path: sustained delta
// ingestion through a live rex.Store on a preset-sized KB. It reports
// three things the overlay + carry-over design claims:
//
//   - O(delta) apply: a small delta (≤100 records) applies as an
//     overlay and swaps in through the store in time independent of KB
//     size, and the store sustains a delta stream at such a rate
//     (applies/sec, per-apply percentiles, compactions).
//   - swap-to-warm: after a swap, previously hot pairs answer from the
//     carried result cache — the p50 is a cache hit, not a recompute.
//   - carry effectiveness: the post-swap hit rate over hot pairs and
//     the cumulative carried/dropped/promotion counters.
//
// Deltas are synthetic but localized, like real extraction increments:
// each one attaches a chain of fresh entities to a low-degree anchor
// under a dedicated "ingest" label, so invalidation stays bounded and
// most of the warm working set is provably out of reach.

// ingestOptions parameterises the ingest run.
type ingestOptions struct {
	Preset string
	Seed   int64
	Deltas int // sustained-phase delta count
	Ops    int // records per delta
	Pairs  int // hot pairs for the swap-to-warm phase
}

// ingestReport is the "ingest" section of BENCH.json.
type ingestReport struct {
	Preset      string `json:"preset"`
	Seed        int64  `json:"seed"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	OpsPerDelta int    `json:"ops_per_delta"`

	// Single delta: the same parsed delta applied to the frozen graph
	// as an overlay, and end to end through the store (overlay + new
	// explainer + carry).
	OverlayMs   float64 `json:"overlay_apply_ms"`
	StoreSwapMs float64 `json:"store_swap_ms"`

	// Swap-to-warm: hot-pair latency and hit rate on the snapshot
	// published by the delta above, answered from carried cache entries.
	HotPairs        int     `json:"hot_pairs"`
	WarmP50Ms       float64 `json:"swap_to_warm_p50_ms"`
	PostSwapHitRate float64 `json:"post_swap_hit_rate"`

	// Sustained phase: a stream of Deltas localized deltas through the
	// store, each one a full apply+swap.
	Deltas            int     `json:"deltas"`
	ApplyP50Ms        float64 `json:"apply_p50_ms"`
	ApplyP99Ms        float64 `json:"apply_p99_ms"`
	AppliesPerSec     float64 `json:"applies_per_sec"`
	OpsPerSec         float64 `json:"ops_per_sec"`
	Compactions       uint64  `json:"compactions"`
	FinalOverlayDepth int     `json:"final_overlay_depth"`
	ResultsCarried    uint64  `json:"results_carried"`
	ResultsDropped    uint64  `json:"results_dropped"`
	MemoPromotions    uint64  `json:"memo_promotions"`
}

// ingestAnchor picks a low-degree existing node to hang a delta off:
// hubs would make the invalidation ball cover half the graph, which is
// not the shape of an extraction increment.
func ingestAnchor(g *kb.Graph, rng *rand.Rand) kb.NodeID {
	best := kb.NodeID(rng.Intn(g.NumNodes()))
	for try := 0; try < 64; try++ {
		id := kb.NodeID(rng.Intn(g.NumNodes()))
		if g.Degree(id) < g.Degree(best) {
			best = id
		}
		if g.Degree(best) <= 8 {
			break
		}
	}
	return best
}

// ingestDelta builds one localized delta: a chain of fresh entities
// attached to a low-degree anchor under the "ingest" label. tag keys
// the new entity names so successive deltas never collide; withLabel
// prepends the label registration (needed exactly once per store).
func ingestDelta(g *kb.Graph, rng *rand.Rand, tag string, ops int, withLabel bool) string {
	var sb strings.Builder
	if withLabel {
		sb.WriteString("label\tingest\tU\n")
	}
	prev := g.NodeName(ingestAnchor(g, rng))
	for j := 0; 2*j+1 < ops; j++ {
		name := fmt.Sprintf("ing_%s_%d", tag, j)
		fmt.Fprintf(&sb, "node\t%s\tconcept\n", name)
		fmt.Fprintf(&sb, "edge\t%s\t%s\tingest\n", prev, name)
		prev = name
	}
	return sb.String()
}

// runIngest executes the ingest experiment into report.Ingest.
func runIngest(report *benchReport, stdout io.Writer, opt ingestOptions) error {
	genOpt, err := kbgen.PresetOptions(opt.Preset, opt.Seed)
	if err != nil {
		return err
	}
	if opt.Deltas <= 0 {
		opt.Deltas = 32
	}
	if opt.Ops <= 0 {
		opt.Ops = 100
	}
	if opt.Pairs <= 0 {
		opt.Pairs = 24
	}
	r := &ingestReport{Preset: opt.Preset, Seed: opt.Seed, OpsPerDelta: opt.Ops}
	rng := rand.New(rand.NewSource(opt.Seed + 2))

	g := kbgen.Generate(genOpt)
	st := g.Stats()
	r.Nodes, r.Edges = st.Nodes, st.Edges
	fmt.Fprintf(stdout, "ingest: %s KB: %d entities, %d relationships\n", opt.Preset, st.Nodes, st.Edges)

	// The store serves a binary-snapshot round trip of the generated
	// graph, exactly what a production deployment would load from disk.
	dir, err := os.MkdirTemp("", "rexbench-ingest-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "kb.bin")
	if err := g.SaveBinary(snap); err != nil {
		return err
	}
	store, err := rex.OpenStore(snap, rex.Options{TopK: 10, MaxPatternSize: 3, CacheSize: 4096})
	if err != nil {
		return err
	}

	// Warm the hot pairs on generation 1.
	sampled := kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: (opt.Pairs + 3) / 4, Seed: opt.Seed + 1})
	seen := make(map[rex.Pair]bool, len(sampled))
	var hot []rex.Pair
	for _, p := range sampled {
		np := rex.Pair{Start: g.NodeName(p.Start), End: g.NodeName(p.End)}
		if seen[np] || len(hot) >= opt.Pairs {
			continue
		}
		seen[np] = true
		hot = append(hot, np)
	}
	if len(hot) == 0 {
		return fmt.Errorf("ingest: no hot pairs sampled")
	}
	r.HotPairs = len(hot)
	for _, p := range hot {
		if _, err := store.Current().Explainer.Explain(p.Start, p.End); err != nil {
			return fmt.Errorf("ingest: warm %s/%s: %w", p.Start, p.End, err)
		}
	}

	// Single delta on the frozen graph: the overlay apply takes the best
	// of a few runs to shave scheduler noise.
	cmp, err := live.ParseDelta(strings.NewReader(ingestDelta(g, rng, "cmp", min(opt.Ops, 100), true)))
	if err != nil {
		return err
	}
	var t0 time.Time
	for i := 0; i < 3; i++ {
		t0 = time.Now()
		if _, _, _, err := cmp.Apply(g); err != nil {
			return err
		}
		if ms := msSince(t0); i == 0 || ms < r.OverlayMs {
			r.OverlayMs = ms
		}
	}
	// The same delta end to end through the store: overlay apply plus
	// explainer construction and cache carry-over, published as
	// generation 2.
	t0 = time.Now()
	info, err := store.Apply(strings.NewReader(ingestDelta(g, rng, "cmp", min(opt.Ops, 100), true)))
	if err != nil {
		return err
	}
	r.StoreSwapMs = msSince(t0)
	fmt.Fprintf(stdout, "ingest: %d-op delta: overlay %.2fms, store swap %.2fms\n",
		min(opt.Ops, 100), r.OverlayMs, r.StoreSwapMs)

	// Swap-to-warm: the hot pairs against the just-published overlay
	// snapshot. Carried entries answer without recomputation.
	cur := store.Current()
	hits0 := cur.Explainer.CacheStats().Hits
	var warm []float64
	for _, p := range hot {
		t0 = time.Now()
		if _, err := cur.Explainer.Explain(p.Start, p.End); err != nil {
			return fmt.Errorf("ingest: post-swap %s/%s: %w", p.Start, p.End, err)
		}
		warm = append(warm, msSince(t0))
	}
	slices.Sort(warm)
	r.WarmP50Ms = percentile(warm, 50)
	r.PostSwapHitRate = float64(cur.Explainer.CacheStats().Hits-hits0) / float64(len(hot))
	fmt.Fprintf(stdout, "ingest: swap-to-warm over %d hot pairs: p50 %.3fms, hit rate %.0f%% (carried %d, dropped %d)\n",
		len(hot), r.WarmP50Ms, 100*r.PostSwapHitRate, info.ResultsCarried, info.ResultsDropped)

	// Sustained phase: a stream of localized deltas, each a full
	// apply+swap through the store.
	r.Deltas = opt.Deltas
	var lat []float64
	t0 = time.Now()
	for i := 0; i < opt.Deltas; i++ {
		d := ingestDelta(g, rng, fmt.Sprintf("s%d", i), opt.Ops, false)
		ta := time.Now()
		if _, err := store.Apply(strings.NewReader(d)); err != nil {
			return fmt.Errorf("ingest: delta %d: %w", i, err)
		}
		lat = append(lat, msSince(ta))
	}
	total := time.Since(t0).Seconds()
	slices.Sort(lat)
	r.ApplyP50Ms = percentile(lat, 50)
	r.ApplyP99Ms = percentile(lat, 99)
	r.AppliesPerSec = float64(opt.Deltas) / total
	r.OpsPerSec = float64(opt.Deltas*opt.Ops) / total
	ls := store.LiveStats()
	r.Compactions = ls.Compactions
	r.FinalOverlayDepth = ls.OverlayDepth
	r.ResultsCarried = ls.ResultsCarried
	r.ResultsDropped = ls.ResultsDropped
	r.MemoPromotions = ls.MemoPromotions
	fmt.Fprintf(stdout, "ingest: sustained %d deltas x %d ops: %.1f applies/s (%.0f ops/s), apply p50 %.2fms, p99 %.2fms, %d compactions, depth %d\n",
		opt.Deltas, opt.Ops, r.AppliesPerSec, r.OpsPerSec, r.ApplyP50Ms, r.ApplyP99Ms, r.Compactions, r.FinalOverlayDepth)

	report.Ingest = append(report.Ingest, r)
	return nil
}
