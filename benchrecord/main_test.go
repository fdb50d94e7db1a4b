package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rex"
	"rex/internal/kbgen"
)

// The metric tables here and BENCHMARK.json must name the same metrics
// with the same units, in the same order, and the same workloads.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark reports %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark reports %v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json %v, benchmark runs %v", names, workloadNames())
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	s := summarize(xs)
	if s.Tail != 90 || s.TailPct != 90 || s.P50 != 50.5 {
		t.Fatalf("summarize 1..100 = %+v, want p50 50.5 and tail p90 = 90 (ten samples beyond)", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.Tail != 3 || s.TailPct != 100 {
		t.Fatalf("summarize of 3 samples = %+v, want the maximum as p100", s)
	}
}

// The hardware-independent cold-tail counters repeat exactly for a
// fixed seed, and the traced pipeline ranks what Explain ranks.
func TestColdTailCountersDeterministic(t *testing.T) {
	opt, err := kbgen.PresetOptions("small", 7)
	if err != nil {
		t.Fatal(err)
	}
	g := kbgen.Generate(opt)
	g.Freeze()
	pairs := bucketedPairs(g, 4, 8)
	if len(pairs) < 6 {
		t.Fatalf("only %d pairs sampled", len(pairs))
	}
	pairs = pairs[:6]
	snap := filepath.Join(t.TempDir(), "kb.bin")
	if err := g.SaveBinary(snap); err != nil {
		t.Fatal(err)
	}
	k, err := rex.LoadKB(snap)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := rex.NewExplainer(k, rex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	counters := func() string {
		pl, err := newPipeline(g)
		if err != nil {
			t.Fatal(err)
		}
		var (
			log  spanLog
			tot  obsTotals
			expl int
		)
		for i, p := range pairs {
			ranked, qt, err := pl.explain(context.Background(), &log, fmt.Sprint(i), p.Start, p.End)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ex.Explain(p.Start, p.End)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRanking(res, ranked); err != nil {
				t.Fatalf("pair %s/%s: %v", p.Start, p.End, err)
			}
			tot.add(qt.Report)
			expl += qt.Explanations
		}
		return fmt.Sprintf("expansions=%d explanations=%d merges=%d memo_misses=%d walk_misses=%d table_cells=%d",
			tot.Expansions, expl, tot.Merges, tot.MemoMisses, tot.WalkMisses, pl.ev.MemoStats().TableCells)
	}
	first, second := counters(), counters()
	if first != second {
		t.Fatalf("counters differ between identical runs:\n%s\n%s", first, second)
	}
	if strings.Contains(first, "expansions=0 ") {
		t.Fatalf("counters never moved: %s", first)
	}
}

// A query aborted by its deadline still closes its spans, so the
// coverage line adds up and no self time goes negative.
func TestAbortedQueryKeepsCoverage(t *testing.T) {
	opt, err := kbgen.PresetOptions("small", 7)
	if err != nil {
		t.Fatal(err)
	}
	g := kbgen.Generate(opt)
	g.Freeze()
	pl, err := newPipeline(g)
	if err != nil {
		t.Fatal(err)
	}
	p := bucketedPairs(g, 1, 8)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var log spanLog
	_, qt, err := pl.explain(ctx, &log, "q0", p.Start, p.End)
	if err == nil {
		t.Fatal("explain under a cancelled context succeeded")
	}
	self := log.selfTimes()
	var sum time.Duration
	for name, d := range self {
		if d < 0 {
			t.Errorf("span %s has negative self time %v", name, d)
		}
		sum += d
	}
	if sum != qt.Wall || qt.Wall <= 0 {
		t.Errorf("self times add up to %v, query wall %v", sum, qt.Wall)
	}
}

// tinyEnv shrinks a workload to the small preset and a one-second
// window, keeping its shape.
func tinyEnv(t *testing.T, workload string, trace bool, log io.Writer) *env {
	p := defaultParams(workload)
	p.Preset, p.Setups, p.PerBucket, p.WarmupS = "small", 1, 20, 0.2
	if p.CacheSize > 0 {
		p.CacheSize = 16
	}
	if p.DeltaRate > 0 {
		p.Rejoins = []string{"wal", "snapshot"}
	}
	return &env{Workload: workload, Seed: 1, Seconds: 1, Trace: trace, WorkDir: t.TempDir(), P: p, Log: log}
}

// Every workload, untraced and traced, passes its output checks and
// prints every metric of its kind by name with its unit.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fleets of replicas")
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				if code := runEnv(workloads[w], tinyEnv(t, w, trace, &stdout), &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cold-tail", "--trace", "2"},
		{"--workload", "cold-tail", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run %v = %d with stdout %q, want 2 and nothing printed", args, code, stdout.String())
		}
	}
}

// A read stream asks every pair its expected number of times under the
// tenant and Zipf weights, give or take one, and repeats for a seed.
func TestZipfStreamSystematic(t *testing.T) {
	var pool []pair
	for i := 0; i < 100; i++ {
		pool = append(pool, pair{Start: fmt.Sprint("s", i), End: fmt.Sprint("e", i)})
	}
	const tenants, n = 4, 700
	z := newZipfPool(pool, 0.9, tenants)
	got := map[pair]int{}
	for _, p := range z.stream(n, 3) {
		got[p]++
	}
	for ti, pairs := range z.tenants {
		cum := z.cum[ti]
		prev := 0.0
		for r, p := range pairs {
			want := n * (cum[r] - prev) / cum[len(cum)-1] / tenants
			prev = cum[r]
			if d := float64(got[p]) - want; d <= -1 || d >= 1 {
				t.Errorf("pair %v asked %d times, expected %.2f", p, got[p], want)
			}
		}
	}
	if a, b := z.stream(n, 3), z.stream(n, 3); !slices.Equal(a, b) {
		t.Error("the same seed gave two different streams")
	}
}
