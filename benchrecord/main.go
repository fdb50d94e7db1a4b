// Command benchrecord is the benchmark of record of the REX repository:
// one command that runs a named workload from a seed, prints every
// end-to-end metric (or, traced, every per-layer metric) by name and
// unit, checks the program's outputs, and exits non-zero if a check
// fails. Run it from the root of a checkout through run.sh:
//
//	bash benchrecord/run.sh --workload serve-zipf --seed 3 --seconds 20 --trace 0
//
// Workloads (see README.md for the rationale of each):
//
//	cold-tail   cold, unbudgeted, distinct pairs through one in-process
//	            rex.Explainer, one closed-loop client
//	serve-zipf  Zipf-popular budgeted reads, open loop, through a
//	            cluster.Router over two cached in-process replicas
//	write-mix   the serve-zipf fleet on durable stores with a fixed-rate
//	            delta stream, ending in a fixed wipe-and-rejoin schedule
//
// The knowledge base is generated by internal/kbgen from the seed and
// written to a binary snapshot before anything is timed; the program
// only sees that snapshot and the generated pairs and deltas. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rex"
	"rex/internal/kb"
	"rex/internal/kbgen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names a reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees that every
// workload has and that stay steady across seeds; every workload reports
// all of them with tracing off. The other user-visible figures are
// logged as "figure" lines (see README.md). BENCHMARK.json lists the
// same names (main_test.go checks).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_share", "share"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"kb.load_ms", "ms"},
	{"rex.explains_per_s", "1/s"},
	{"rex.explain_p50_ms", "ms"},
	{"rex.explain_tail_ms", "ms"},
	{"cluster.latency_p50_ms", "ms"},
	{"cluster.latency_tail_ms", "ms"},
	{"enumerate.self_ms", "ms"},
	{"enumerate.expansions", "count"},
	{"enumerate.expansions_per_query", "count/query"},
	{"enumerate.explanations", "count"},
	{"enumerate.explanations_per_query", "count/query"},
	{"pattern.merge_ms", "ms"},
	{"pattern.merges", "count"},
	{"pattern.merges_per_query", "count/query"},
	{"rank.self_ms", "ms"},
	{"rank.pruned_share", "share"},
	{"measure.self_ms", "ms"},
	{"measure.calls", "count"},
	{"measure.calls_per_query", "count/query"},
	{"measure.memo_hit_ratio", "share"},
	{"measure.memo_misses", "count"},
	{"measure.walk_hit_ratio", "share"},
	{"measure.walk_misses", "count"},
	{"measure.table_cells", "count"},
	{"measure.prefix_nodes", "count"},
	{"measure.memo_promotions", "count"},
	{"measure.memo_promotions_per_delta", "count/delta"},
	{"match.ms", "ms"},
	{"rex.cache_hit_ratio", "share"},
	{"rex.flight_dedup", "count"},
	{"rex.flight_dedup_per_query", "count/query"},
	{"rex.post_swap_hit_ratio", "share"},
	{"rex.results_carried", "count"},
	{"rex.results_carried_per_delta", "count/delta"},
	{"rex.results_dropped", "count"},
	{"rex.results_dropped_per_delta", "count/delta"},
	{"rex.truncated_share", "share"},
	{"serve.explain_p50_ms", "ms"},
	{"serve.explain_tail_ms", "ms"},
	{"serve.shed_share", "share"},
	{"serve.delta_p50_ms", "ms"},
	{"cluster.router_self_ms", "ms"},
	{"cluster.retries", "count"},
	{"cluster.retries_per_query", "count/query"},
	{"cluster.hedges_fired", "count"},
	{"cluster.hedges_fired_per_query", "count/query"},
	{"cluster.failovers", "count"},
	{"cluster.failovers_per_query", "count/query"},
	{"cluster.apply_p50_ms", "ms"},
	{"cluster.apply_tail_ms", "ms"},
	{"cluster.broadcast_self_ms", "ms"},
	{"live.fsyncs_per_delta", "count/delta"},
	{"live.wal_bytes_per_delta_byte", "B/B"},
	{"live.checkpoints", "count"},
	{"live.checkpoints_per_delta", "count/delta"},
	{"live.compactions", "count"},
	{"live.compactions_per_delta", "count/delta"},
	{"live.overlay_depth_max", "count"},
	{"sync.catchup_ms", "ms"},
	{"sync.wal_tail_ms", "ms"},
	{"sync.snapshot_ms", "ms"},
	{"sync.bytes_per_rejoin", "B"},
	{"loadgen.lag_tail_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.unattributed_ms", "ms"},
}

// env is what a workload runs with.
type env struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	WorkDir  string // private scratch directory, removed when the run ends
	P        params
	Log      io.Writer
}

func (e *env) window() time.Duration { return time.Duration(e.Seconds * float64(time.Second)) }

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.Log, format+"\n", args...) }

// figure logs a user-visible figure that is reported but not gated.
func (e *env) figure(name string, v float64, unit string) {
	e.logf("figure %-24s %14.6g %s", name, v, unit)
}

// outcome is a finished workload: its accounting, failed checks and
// metrics.
type outcome struct {
	Attempted, Failed int
	Checks            []string // failed output checks; empty when correct
	E2E, Layer        map[string]float64
}

func newOutcome() *outcome {
	return &outcome{E2E: map[string]float64{}, Layer: map[string]float64{}}
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.Checks = append(o.Checks, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"cold-tail":  runColdTail,
	"serve-zipf": runServeZipf,
	"write-mix":  runWriteMix,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrecord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same KB, pairs and deltas")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	workDir := fs.String("workdir", ".bench_build", "directory for snapshots and data dirs")
	// Overrides of a workload's fixed traffic and limits, for rate,
	// budget and sensitivity sweeps only; a run of record uses the
	// defaults, and the provenance line prints whatever was used.
	rate := fs.Float64("rate", 0, "sweep only: open-loop reads per second instead of the workload's")
	deltaRate := fs.Float64("delta-rate", 0, "sweep only: open-loop deltas per second instead of the workload's")
	budgetMS := fs.Int64("budget-ms", 0, "sweep only: budget_ms of every read instead of the workload's")
	limitMS := fs.Float64("limit-ms", 0, "sweep only: goodput latency limit instead of the workload's")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchrecord: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchrecord:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchrecord:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	p := defaultParams(*workload)
	if *rate > 0 && p.Rate > 0 {
		p.Rate = *rate
	}
	if *deltaRate > 0 && p.DeltaRate > 0 {
		p.DeltaRate = *deltaRate
	}
	if *budgetMS > 0 && p.BudgetMS > 0 {
		p.BudgetMS = *budgetMS
	}
	if *limitMS > 0 {
		p.LimitMS = *limitMS
	}
	e := &env{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		WorkDir: dir, P: p, Log: stdout}
	return runEnv(fn, e, stdout, stderr)
}

// runEnv runs one workload and reports it; the exit code is non-zero
// when the run failed or an output check did.
func runEnv(fn func(*env) (*outcome, error), e *env, stdout, stderr io.Writer) int {
	out, err := fn(e)
	if err != nil {
		fmt.Fprintf(stderr, "benchrecord: %s: %v\n", e.Workload, err)
		return 1
	}
	if err := writeResult(stdout, e.Trace, out); err != nil {
		fmt.Fprintln(stderr, "benchrecord:", err)
		return 1
	}
	if len(out.Checks) > 0 {
		const shown = 20
		for _, c := range out.Checks[:min(shown, len(out.Checks))] {
			fmt.Fprintln(stderr, "benchrecord: check failed:", c)
		}
		if len(out.Checks) > shown {
			fmt.Fprintf(stderr, "benchrecord: ... and %d more failed checks\n", len(out.Checks)-shown)
		}
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints every metric of the run's kind by name and unit,
// then the result object as the last line.
func writeResult(w io.Writer, traced bool, out *outcome) error {
	defs, vals := endToEnd, out.E2E
	if traced {
		defs, vals = perLayer, out.Layer
	}
	res := result{Correct: len(out.Checks) == 0, Attempted: out.Attempted, Failed: out.Failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// kbInput is the generated knowledge base of a run: the graph the
// benchmark derives its inputs from, and the snapshot the program loads.
type kbInput struct {
	G           *kb.Graph
	Snapshot    string
	Fingerprint string
}

// prepareKB generates the preset KB from the seed, writes its binary
// snapshot and prints the provenance header.
func prepareKB(e *env) (*kbInput, error) {
	opt, err := kbgen.PresetOptions(e.P.Preset, e.Seed)
	if err != nil {
		return nil, err
	}
	g := kbgen.Generate(opt)
	in := &kbInput{G: g, Snapshot: filepath.Join(e.WorkDir, "kb.bin"), Fingerprint: g.Fingerprint()}
	if err := g.SaveBinary(in.Snapshot); err != nil {
		return nil, fmt.Errorf("write snapshot: %w", err)
	}
	st := g.Stats()
	b := rex.Build()
	prov := map[string]any{
		"commit": b.Revision, "dirty": b.Modified, "go": b.GoVersion,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"workload": e.Workload, "seed": e.Seed, "seconds": e.Seconds, "trace": e.Trace,
		"preset": e.P.Preset, "nodes": st.Nodes, "edges": st.Edges, "kb_fingerprint": in.Fingerprint,
		"params": e.P,
	}
	pb, err := json.Marshal(prov)
	if err != nil {
		return nil, err
	}
	e.logf("provenance %s", pb)
	return in, nil
}

// untimedSetups run before the timed ones. A process's first set-ups
// run on a cold heap: on cold-tail their times fall by about a third
// over the first five, and whether a run's median lands before or after
// that drop decided much of its spread.
const untimedSetups = 5

// timeSetups runs setup untimedSetups+n times and returns the median
// duration of the last n and the last instance; every earlier instance
// is torn down before the next starts, so set-up is measured on an
// otherwise idle process. It logs every timed duration, in order.
func timeSetups[T any](e *env, n int, setup func() (T, error), teardown func(T)) (T, time.Duration, error) {
	var (
		last  T
		times []float64
	)
	for i := -untimedSetups; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		if i >= 0 {
			times = append(times, float64(time.Since(t0)))
		}
		if i < n-1 {
			teardown(v)
		}
		last = v
	}
	var sb strings.Builder
	for _, t := range times {
		fmt.Fprintf(&sb, " %.1f", t/1e6)
	}
	e.logf("setup times (ms):%s", sb.String())
	return last, time.Duration(median(times)), nil
}
