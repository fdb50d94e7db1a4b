package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke drives the benchmark harness end to end on a tiny
// synthetic workload: one pair per bucket at 5% scale keeps it fast
// while still exercising workload construction and table rendering.
func TestRunSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "fig8", "-pairs", "1", "-scale", "0.05", "-quick"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "workload:") {
		t.Errorf("output missing the workload header:\n%s", s)
	}
	if !strings.Contains(s, "Figure 8") {
		t.Errorf("output missing the Figure 8 table:\n%s", s)
	}
}

// TestRunFlagHandling checks help and flag-error exit codes.
func TestRunFlagHandling(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h: exit code = %d, want 0", code)
	}
	if code := run([]string{"-scale", "not-a-number"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag: exit code = %d, want 2", code)
	}
	// An experiment selector that matches nothing runs nothing and
	// still exits cleanly.
	out.Reset()
	if code := run([]string{"-exp", "nonesuch"}, &out, &errOut); code != 0 {
		t.Errorf("unmatched -exp: exit code = %d, want 0", code)
	}
	if out.Len() != 0 {
		t.Errorf("unmatched -exp produced output: %s", out.String())
	}
}

// TestRunMicroSmoke drives the machine-readable micro suite end to end
// and validates the JSON report shape. Skipped under -short: the suite
// runs each workload to statistical significance (~1s each).
func TestRunMicroSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("micro suite runs full benchmarks; skipped under -short")
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "micro", "-bench-out", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH.json does not parse: %v", err)
	}
	byName := map[string]benchResult{}
	for _, w := range rep.Workloads {
		if w.Iterations <= 0 || w.NsPerOp <= 0 {
			t.Errorf("workload %s has empty measurements: %+v", w.Name, w)
		}
		byName[w.Name] = w
	}
	for _, want := range []string{"match_count", "canonical_key", "explain_end_to_end"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("report missing workload %q", want)
		}
	}
	// The alloc-regression bar of the pooled matcher: the seed baseline
	// recorded 15 allocs/op; steady state must stay essentially
	// allocation-free (sync.Pool refills after a GC may contribute a
	// fractional alloc/op, so allow a small slack rather than 0).
	if mc := byName["match_count"]; mc.AllocsPerOp > 2 {
		t.Errorf("match_count allocates %d/op; want ≤ 2 (seed baseline: 15)", mc.AllocsPerOp)
	}
}

// TestCompareReports exercises the delta-table rendering directly:
// matched workloads get percentage deltas, asymmetric ones are called
// out as added/removed.
func TestCompareReports(t *testing.T) {
	baseline := &benchReport{
		Generated: "2026-01-01T00:00:00Z",
		Workloads: []benchResult{
			{Name: "match_count", NsPerOp: 1000, AllocsPerOp: 10},
			{Name: "gone", NsPerOp: 5, AllocsPerOp: 1},
		},
	}
	current := &benchReport{
		Workloads: []benchResult{
			{Name: "match_count", NsPerOp: 500, AllocsPerOp: 0},
			{Name: "fresh", NsPerOp: 7, AllocsPerOp: 2},
		},
	}
	var buf bytes.Buffer
	compareReports(&buf, "base.json", baseline, current)
	s := buf.String()
	for _, want := range []string{"match_count", "-50.0%", "(new workload)", "(removed workload)", "base.json"} {
		if !strings.Contains(s, want) {
			t.Errorf("delta table missing %q:\n%s", want, s)
		}
	}
}

// TestRunCompareRequiresMicro pins the flag-combination error.
func TestRunCompareRequiresMicro(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig8", "-pairs", "1", "-scale", "0.05", "-quick", "-compare", "nope.json"}, &out, &errOut); code != 2 {
		t.Errorf("-compare without micro: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-compare requires") {
		t.Errorf("missing error message, got: %s", errOut.String())
	}
}

// TestRunMacroSmoke drives the macro experiment end to end on the small
// preset (one pair per bucket, single throughput round) and checks the
// JSON report carries the macro section.
func TestRunMacroSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("macro smoke generates a KB; skip under -short")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "macro", "-preset", "small", "-macro-pairs", "1",
		"-macro-qps-seconds", "0", "-bench-out", jsonPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"fingerprint ok", "explain latency", "sustained BatchExplain"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("macro output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	m := report.Macro
	if m == nil {
		t.Fatal("report has no macro section")
	}
	if m.Preset != "small" || m.Edges == 0 || m.Pairs == 0 || m.LatencySamples == 0 || m.BatchQueries == 0 {
		t.Errorf("implausible macro section: %+v", m)
	}
	if m.ExplainP50Ms <= 0 || m.ExplainP99Ms < m.ExplainP50Ms {
		t.Errorf("implausible latency percentiles: p50=%v p99=%v", m.ExplainP50Ms, m.ExplainP99Ms)
	}
}

// TestRunIngestSmoke drives the write-path experiment end to end on the
// small preset and checks the JSON report carries the ingest section.
func TestRunIngestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ingest smoke generates a KB; skip under -short")
	}
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "ingest", "-preset", "small", "-ingest-deltas", "4",
		"-ingest-ops", "20", "-ingest-pairs", "4", "-bench-out", jsonPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"overlay", "swap-to-warm", "sustained 4 deltas"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("ingest output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Ingest) != 1 {
		t.Fatalf("ingest sections = %d, want 1", len(report.Ingest))
	}
	ig := report.Ingest[0]
	if ig.Preset != "small" || ig.Edges == 0 || ig.HotPairs == 0 || ig.Deltas != 4 {
		t.Errorf("implausible ingest section: %+v", ig)
	}
	if ig.OverlayMs <= 0 || ig.StoreSwapMs <= 0 || ig.AppliesPerSec <= 0 {
		t.Errorf("ingest timings missing: %+v", ig)
	}
	if ig.PostSwapHitRate < 0 || ig.PostSwapHitRate > 1 {
		t.Errorf("hit rate out of range: %v", ig.PostSwapHitRate)
	}
}

// TestRunRouterSmoke drives the replicated-tier experiment with
// in-process replicas (no child re-exec, so it works under `go test`
// where os.Executable is the test binary) and checks the report carries
// a plausible router section.
func TestRunRouterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("router smoke generates a KB and boots a fleet; skip under -short")
	}
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "router", "-router-inproc", "-router-replicas", "2",
		"-router-seconds", "0.2", "-router-workers", "4", "-router-tail", "40",
		"-bench-out", jsonPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"router:", "replica(s):", "tail under"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("router output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	r := report.Router
	if r == nil {
		t.Fatal("report has no router section")
	}
	if r.Preset != "small" || r.Replicas != 2 || len(r.QPS) != 2 {
		t.Errorf("implausible router section: %+v", r)
	}
	for _, q := range r.QPS {
		if q.QPS <= 0 || q.Errors != 0 {
			t.Errorf("QPS point at %d replica(s) implausible: %+v", q.Replicas, q)
		}
	}
	hp := r.Hedging
	if hp == nil {
		t.Fatal("router section has no hedging comparison")
	}
	if hp.Samples == 0 || hp.UnhedgedP99Ms <= 0 || hp.HedgedP99Ms <= 0 {
		t.Errorf("implausible hedging point: %+v", hp)
	}
}

// TestPercentileInterpolation pins the linear-interpolation percentile:
// small sample sets must not collapse p99 onto max (the nearest-rank
// bug the macro report shipped with), and exact ranks stay exact.
func TestPercentileInterpolation(t *testing.T) {
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty: %v", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("singleton: %v", got)
	}
	s := []float64{1, 2, 3, 4, 5}
	if got := percentile(s, 50); got != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", got)
	}
	if got := percentile(s, 100); got != 5 {
		t.Errorf("p100 of 1..5 = %v, want 5", got)
	}
	// p99 over 5 samples interpolates between the 4th and 5th value —
	// strictly below max, unlike nearest-rank.
	if got := percentile(s, 99); got <= 4 || got >= 5 {
		t.Errorf("p99 of 1..5 = %v, want in (4,5)", got)
	}
	// Many-sample sanity: p99 of 1..200 ≈ 198.01.
	var big []float64
	for i := 1; i <= 200; i++ {
		big = append(big, float64(i))
	}
	if got := percentile(big, 99); got < 197.5 || got > 198.5 {
		t.Errorf("p99 of 1..200 = %v, want ≈198", got)
	}
}

// TestParseIntList covers the contended-mode list flags.
func TestParseIntList(t *testing.T) {
	if got, err := parseIntList(""); err != nil || got != nil {
		t.Errorf("empty: %v %v", got, err)
	}
	got, err := parseIntList("1, 4,16")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Errorf("parse: %v %v", got, err)
	}
	if _, err := parseIntList("1,x"); err == nil {
		t.Error("non-numeric entry accepted")
	}
	if _, err := parseIntList("0"); err == nil {
		t.Error("zero accepted")
	}
}

// TestRunMacroContendedSmoke exercises the contended mode and budget
// knobs end to end on the small preset.
func TestRunMacroContendedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("macro smoke generates a KB; skip under -short")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "macro", "-preset", "small", "-macro-pairs", "1",
		"-macro-rounds", "1", "-macro-qps-seconds", "0", "-macro-budget-ms", "50",
		"-macro-workers", "1,2", "-mutexprofile", filepath.Join(dir, "mutex.pprof"),
		"-bench-out", jsonPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"budgeted explain latency", "contended cpu=", "wrote mutex profile"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("macro output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	m := report.Macro
	if m == nil {
		t.Fatal("report has no macro section")
	}
	if m.BudgetMS != 50 || m.BudgetedSamples == 0 {
		t.Errorf("budgeted phase missing: %+v", m)
	}
	// workers 1 and 2, each with and without the budget.
	if len(m.Contended) != 4 {
		t.Fatalf("contended points = %d, want 4", len(m.Contended))
	}
	for i, pt := range m.Contended {
		if pt.Queries == 0 || pt.QPS <= 0 || pt.P99Ms <= 0 {
			t.Errorf("contended point %d implausible: %+v", i, pt)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "mutex.pprof")); err != nil || fi.Size() == 0 {
		t.Errorf("mutex profile not written: %v", err)
	}
}
