package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"rex"
	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/match"
	"rex/internal/pattern"
)

// The micro experiment pins the hot-path primitives to a fixed small
// knowledge base (the curated sample KB: deterministic, loads in
// milliseconds, dense enough to exercise every code path) and emits
// machine-readable results, so the performance trajectory of the
// reproduction is tracked in version control rather than in commit
// messages. BENCH_seed.json holds the pre-optimisation baseline; CI
// regenerates BENCH.json on every run and uploads it as an artifact.
// Numbers are hardware-dependent — the files are for trend reading and
// allocs/op comparisons (which are hardware-independent), not absolute
// timing guarantees.

// benchWorkload is one named workload of the micro suite.
type benchWorkload struct {
	name string
	desc string
	fn   func(b *testing.B)
}

// benchResult is the machine-readable outcome of one workload.
type benchResult struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the BENCH.json document.
type benchReport struct {
	Note      string        `json:"note"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"num_cpu"`
	Generated string        `json:"generated"`
	Workloads []benchResult `json:"workloads"`
	// Macro holds the traffic-shaped numbers (million-edge KB latency
	// percentiles and sustained QPS) when -exp macro ran; see macro.go.
	Macro *macroReport `json:"macro,omitempty"`
	// Ingest holds the write-path numbers (O(delta) apply and store swap,
	// swap-to-warm, sustained applies/sec), one entry per preset the
	// -exp ingest run covered; see ingest.go.
	Ingest []*ingestReport `json:"ingest,omitempty"`
	// WAL holds the durability-cost numbers (applies/sec through a
	// journaling store per fsync policy) when -exp wal ran; see wal.go.
	WAL []*walReport `json:"wal,omitempty"`
	// Trace holds the per-stage pipeline breakdown when -trace ran; see
	// trace.go.
	Trace *traceReport `json:"trace,omitempty"`
	// Router holds the replicated-tier numbers (QPS vs replica count,
	// hedged vs unhedged tail) when -exp router ran; see router.go.
	Router *routerReport `json:"router,omitempty"`
	// Sync holds the replica catch-up numbers (wall time vs lag depth,
	// WAL-tail replay vs full-snapshot transfer) when -exp sync ran; see
	// sync.go.
	Sync []*syncReport `json:"sync,omitempty"`
}

// newBenchReport stamps the environment header.
func newBenchReport() benchReport {
	return benchReport{
		Note: "REX hot-path micro-benchmarks on the fixed sample KB, plus the optional " +
			"macro section (million-edge KB latency percentiles and sustained QPS) and " +
			"ingest section (write path: O(delta) overlay applies and store swaps, " +
			"sustained applies/sec, swap-to-warm carry-over). " +
			"allocs/op is hardware-independent; ns/op is for trend reading on comparable " +
			"hardware. Baseline: BENCH_seed.json (pre-optimisation seed).",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
}

// writeReport writes the BENCH.json document.
func writeReport(report *benchReport, path string, stdout io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// microWorkloads assembles the suite over the sample KB.
func microWorkloads() []benchWorkload {
	g := kbgen.Sample()
	g.Freeze()
	s := g.NodeByName("brad_pitt")
	e := g.NodeByName("angelina_jolie")
	cfg := enumerate.Config{
		MaxPatternSize: 5,
		PathAlg:        enumerate.PathPrioritized,
		UnionAlg:       enumerate.UnionPrune,
	}
	es := enumerate.Explanations(g, s, e, cfg)
	largest := es[len(es)-1].P
	smallest := es[0].P

	// Pattern rebuild inputs so key workloads cannot amortise the
	// per-pattern caches.
	edges := make([][]pattern.Edge, len(es))
	ns := make([]int, len(es))
	for i, ex := range es {
		edges[i] = append([]pattern.Edge{}, ex.P.Edges()...)
		ns[i] = ex.P.NumVars()
	}
	sch := es[0].P.Schema()

	var re1, re2 *pattern.Explanation
	for _, ex := range es {
		if ex.P.IsPath() && ex.P.NumVars() == 3 {
			if re1 == nil {
				re1 = ex
			} else if re2 == nil {
				re2 = ex
			}
		}
	}

	w := []benchWorkload{
		{
			name: "match_count",
			desc: "steady-state match.Count of the largest enumerated pattern (fixed end)",
			fn: func(b *testing.B) {
				match.Count(g, largest, s, e) // warm the matcher pool
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					match.Count(g, largest, s, e)
				}
			},
		},
		{
			name: "match_count_by_end",
			desc: "match.CountByEndInto of the smallest enumerated pattern (free end, reused table)",
			fn: func(b *testing.B) {
				counts := make(map[kb.NodeID]int)
				if err := match.CountByEndInto(context.Background(), g, smallest, s, counts); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(counts)
					if err := match.CountByEndInto(context.Background(), g, smallest, s, counts); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			name: "canonical_key",
			desc: "canonical form of a freshly rebuilt pattern (cache cannot amortise)",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := pattern.MustNew(sch, ns[i%len(ns)], edges[i%len(edges)])
					_ = p.CanonicalKey()
				}
			},
		},
		{
			name: "pattern_key",
			desc: "interned 64-bit key of a freshly rebuilt pattern",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := pattern.MustNew(sch, ns[i%len(ns)], edges[i%len(edges)])
					_ = p.Key()
				}
			},
		},
		{
			name: "enumerate",
			desc: "full explanation enumeration (prioritized paths + pruned union)",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					enumerate.Explanations(g, s, e, cfg)
				}
			},
		},
		{
			name: "explain_end_to_end",
			desc: "uncached rex.Explain under size+local-dist (snapshot-level memo reuse included)",
			fn: func(b *testing.B) {
				kbv := rex.SampleKB()
				ex, err := rex.NewExplainer(kbv, rex.Options{Measure: "size+local-dist", TopK: 10})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ex.Explain("kate_winslet", "leonardo_dicaprio"); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}
	if re1 != nil && re2 != nil {
		w = append(w, benchWorkload{
			name: "merge",
			desc: "pattern.Merge of two 3-variable path explanations",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pattern.Merge(re1, re2, 5)
				}
			},
		})
	}
	return w
}

// runMicro executes the micro suite into report and prints a table. It
// returns a non-nil error only for real failures (workload setup) —
// never for timing variance.
func runMicro(report *benchReport, stdout io.Writer) error {
	fmt.Fprintf(stdout, "%-22s %14s %12s %12s\n", "workload", "ns/op", "B/op", "allocs/op")
	for _, w := range microWorkloads() {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			w.fn(b)
		})
		res := benchResult{
			Name:        w.name,
			Description: w.desc,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		report.Workloads = append(report.Workloads, res)
		fmt.Fprintf(stdout, "%-22s %14.1f %12d %12d\n", res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	return nil
}
