// Command rexbench regenerates every table and figure of the REX paper's
// evaluation (Section 5) on the synthetic workload:
//
//	rexbench -exp all            # everything (slow: includes NaiveEnum)
//	rexbench -exp fig7 -quick    # Figure 7 without the NaiveEnum baseline
//	rexbench -exp table1         # the user-study Table 1 (simulated raters)
//	rexbench -exp micro -bench-out BENCH.json   # hot-path micro suite, JSON results
//	rexbench -exp micro -compare BENCH_seed.json  # + delta table vs a committed baseline
//	rexbench -exp macro -preset million         # million-edge KB latency/QPS section
//	rexbench -exp macro -macro-budget-ms 250 -macro-workers 1,4 \
//	    -mutexprofile mutex.pprof               # + anytime-budget and contended phases
//	rexbench -exp ingest -preset million        # write path: O(delta) applies + carry-over
//
// Experiments: fig7, fig8, fig9, fig10, fig11, table1, pathshare, all,
// plus three opt-in perf suites: micro emits machine-readable ns/op, B/op
// and allocs/op per hot-path workload (the trajectory tracked by
// BENCH_seed.json / BENCH.json), and macro generates a preset-sized
// synthetic KB (million ≈ 1.2M relationships), round-trips its CSR
// binary snapshot, and reports Explain latency percentiles plus
// sustained BatchExplain QPS — optionally re-measured under the
// anytime budget (-macro-budget-ms / -macro-budget-expansions) and in
// the contended mode (-macro-workers, -macro-cpu), with a mutex
// contention profile of the whole run via -mutexprofile. See
// EXPERIMENTS.md for the paper-vs-measured record. The ingest suite
// measures the write path: O(delta) overlay applies and store swaps,
// sustained applies/sec through a live store, and
// swap-to-warm latency plus hit rate of the carried result cache
// (-ingest-deltas, -ingest-ops, -ingest-pairs). The wal suite prices
// durability: the same delta stream through a journaling store under
// fsync=always, interval and off (-wal-deltas, -wal-ops), one
// BENCH.json row per policy.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rex"
	"rex/internal/harness"
)

// parseIntList parses a comma-separated list of positive integers
// ("1,4" → [1 4]); an empty string is an empty list.
func parseIntList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid entry %q (want positive integers)", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeMutexProfile dumps the accumulated mutex-contention profile, the
// artifact CI uploads so lock regressions on the query path are visible
// in PRs.
func writeMutexProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, runs the
// selected experiments, prints their tables to stdout, and returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rexbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment: fig7, fig8, fig9, fig10, fig11, table1, pathshare, learned, ablation, micro, macro, ingest, wal, router, sync, all")
		benchOut  = fs.String("bench-out", "", "write benchmark results as JSON to this file (with -exp micro/macro)")
		compare   = fs.String("compare", "", "baseline BENCH.json to print a per-workload delta table against (with -exp micro)")
		scale     = fs.Float64("scale", 1, "synthetic KB scale factor")
		seed      = fs.Int64("seed", 42, "workload seed")
		perBucket = fs.Int("pairs", 10, "entity pairs per connectedness bucket")
		quick     = fs.Bool("quick", false, "reduce work: skip NaiveEnum, fewer global samples, shorter k sweep")
		samples   = fs.Int("global-samples", 100, "sampled starts estimating the global distribution")
		raters    = fs.Int("raters", 10, "simulated raters for table1/pathshare")
		preset    = fs.String("preset", "million", "KB size preset for -exp macro: small, medium, million")
		macroQPS  = fs.Float64("macro-qps-seconds", 5, "target duration of each macro throughput phase (0: one batch round)")
		macroPer  = fs.Int("macro-pairs", 5, "macro pairs per connectedness bucket")
		macroRnd  = fs.Int("macro-rounds", 4, "macro latency measurements per pair")
		macroBudM = fs.Int64("macro-budget-ms", 0, "macro anytime budget in wall-clock ms; enables the budgeted latency/contended phases (0: skip)")
		macroBudX = fs.Int("macro-budget-expansions", 0, "macro anytime budget in enumeration expansions (0: none)")
		macroWkr  = fs.String("macro-workers", "", "comma-separated BatchExplain worker counts for the macro contended mode, e.g. 1,4 (empty: skip)")
		macroCPU  = fs.String("macro-cpu", "", "comma-separated GOMAXPROCS settings for the macro contended mode (empty: current)")
		ingDeltas = fs.Int("ingest-deltas", 32, "deltas applied in the ingest sustained phase")
		ingOps    = fs.Int("ingest-ops", 100, "records per ingest delta")
		ingPairs  = fs.Int("ingest-pairs", 24, "hot pairs for the ingest swap-to-warm phase")
		walDeltas = fs.Int("wal-deltas", 64, "deltas applied per fsync policy in the wal suite")
		walOps    = fs.Int("wal-ops", 100, "records per wal-suite delta")
		syDepths  = fs.String("sync-depths", "4,16,64", "comma-separated lag depths (deltas behind) for the sync suite")
		syOps     = fs.Int("sync-ops", 100, "records per sync-suite delta")
		syPreset  = fs.String("sync-preset", "small", "KB size preset for -exp sync")
		rtPreset  = fs.String("router-preset", "small", "KB size preset for -exp router")
		rtN       = fs.Int("router-replicas", 3, "fleet size ceiling for -exp router (QPS runs 1..N)")
		rtWorkers = fs.Int("router-workers", 8, "concurrent clients in the router QPS phases")
		rtSecs    = fs.Float64("router-seconds", 2, "duration of each router QPS phase")
		rtBudget  = fs.Int64("router-budget-ms", 50, "query budget in the router hedging phase (budgeted queries are what hedge)")
		rtStallMS = fs.Int("router-stall-ms", 40, "injected stall length for the router hedging phase")
		rtStallPc = fs.Int("router-stall-pct", 3, "injected stall probability (percent) for the router hedging phase; keep below 5 so the p95-derived hedge delay stays under the stall")
		rtTailN   = fs.Int("router-tail", 400, "sequential samples per hedging mode in the router tail phase")
		rtInproc  = fs.Bool("router-inproc", false, "run router-experiment replicas in-process instead of as child processes")
		rtKB      = fs.String("router-kb", "", "internal: binary KB snapshot for the router-replica child mode")
		rtName    = fs.String("router-name", "", "internal: replica name for the router-replica child mode")
		mutexProf = fs.String("mutexprofile", "", "write a runtime mutex-contention profile of the whole run to this file")
		traceOn   = fs.Bool("trace", false, "profile the per-stage pipeline breakdown (enumerate/match/measure/rank/merge) into the report")
		traceRnd  = fs.Int("trace-rounds", 5, "query rounds per pair for the -trace profile")
		version   = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, "rexbench", rex.Build())
		return 0
	}

	gs := *samples
	if *quick && gs > 25 {
		gs = 25
	}

	if *mutexProf != "" {
		// Sample every fifth contended mutex event: cheap enough to leave
		// on for a whole benchmark run, dense enough that a serializing
		// lock on the query path is unmissable in the profile.
		runtime.SetMutexProfileFraction(5)
		defer runtime.SetMutexProfileFraction(0)
		defer func() {
			if err := writeMutexProfile(*mutexProf); err != nil {
				fmt.Fprintln(stderr, "rexbench: mutex profile:", err)
			} else {
				fmt.Fprintf(stdout, "wrote mutex profile %s\n", *mutexProf)
			}
		}()
	}

	wants := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		wants[strings.TrimSpace(e)] = true
	}
	want := func(name string) bool { return wants["all"] || wants[name] }

	// The hidden child mode of the router experiment: this process IS a
	// replica. Nothing else runs.
	if wants["router-replica"] {
		return runRouterReplica(stderr, *rtKB, *rtName, *rtStallMS, *rtStallPc)
	}

	needsEnv := want("fig7") || want("fig8") || want("fig9") || want("fig10") ||
		want("fig11") || want("ablation")
	var env *harness.Env
	if needsEnv {
		start := time.Now()
		env = harness.NewEnv(harness.EnvOptions{
			Scale: *scale, Seed: *seed, PerBucket: *perBucket, GlobalSamples: gs,
		})
		st := env.G.Stats()
		fmt.Fprintf(stdout, "workload: %d entities, %d relationships, %d labels; %d pairs (built in %s)\n",
			st.Nodes, st.Edges, st.Labels, len(env.Pairs), time.Since(start).Round(time.Millisecond))
		for _, b := range harness.Buckets() {
			fmt.Fprintf(stdout, "  %s: %d pairs\n", b, len(env.PairsIn(b)))
		}
	}

	if want("fig7") {
		env.Fig7(*quick).Print(stdout)
	}
	if want("fig8") {
		env.Fig8().Print(stdout)
	}
	if want("fig9") {
		env.Fig9().Print(stdout)
	}
	if want("fig10") {
		ks := []int{1, 5, 10, 20, 50, 100, 200}
		if *quick {
			ks = []int{1, 10, 100}
		}
		env.Fig10(ks).Print(stdout)
	}
	if want("fig11") {
		env.Fig11().Print(stdout)
	}
	if want("ablation") {
		env.Ablation().Print(stdout)
	}
	studyOpt := harness.StudyOptions{
		Scale: *scale, Seed: *seed, NumRaters: *raters, GlobalSamples: gs,
	}
	if want("table1") {
		harness.Table1(studyOpt).Print(stdout)
	}
	if want("pathshare") {
		harness.PathShare(studyOpt).Print(stdout)
	}
	if want("learned") {
		harness.Learned(studyOpt).Print(stdout)
	}
	// The micro, macro and ingest suites are opt-in: they are the
	// hot-path, traffic-shaped and write-path benchmark harnesses behind
	// BENCH.json, not paper figures, so "all" (the paper reproduction)
	// does not imply them. -trace joins them because it feeds the same
	// report document.
	if wants["micro"] || wants["macro"] || wants["ingest"] || wants["wal"] || wants["router"] || wants["sync"] || *traceOn {
		report := newBenchReport()
		if wants["micro"] {
			if err := runMicro(&report, stdout); err != nil {
				fmt.Fprintln(stderr, "rexbench:", err)
				return 1
			}
		}
		if wants["macro"] {
			mWorkers, err := parseIntList(*macroWkr)
			if err != nil {
				fmt.Fprintln(stderr, "rexbench: -macro-workers:", err)
				return 2
			}
			mCPUs, err := parseIntList(*macroCPU)
			if err != nil {
				fmt.Fprintln(stderr, "rexbench: -macro-cpu:", err)
				return 2
			}
			opt := macroOptions{
				Preset: *preset, Seed: *seed, PerBucket: *macroPer, Rounds: *macroRnd,
				QPSSeconds: *macroQPS, BudgetMS: *macroBudM, BudgetExpansions: *macroBudX,
				Workers: mWorkers, CPUs: mCPUs,
			}
			if err := runMacro(&report, stdout, opt); err != nil {
				fmt.Fprintln(stderr, "rexbench:", err)
				return 1
			}
		}
		if *traceOn {
			if err := runTraceProfile(&report, stdout, *traceRnd); err != nil {
				fmt.Fprintln(stderr, "rexbench:", err)
				return 1
			}
		}
		if wants["ingest"] {
			// -preset accepts a comma-separated list for the ingest suite,
			// so one run covers the small/medium/million write-path table.
			for _, p := range strings.Split(*preset, ",") {
				opt := ingestOptions{
					Preset: strings.TrimSpace(p), Seed: *seed,
					Deltas: *ingDeltas, Ops: *ingOps, Pairs: *ingPairs,
				}
				if err := runIngest(&report, stdout, opt); err != nil {
					fmt.Fprintln(stderr, "rexbench:", err)
					return 1
				}
			}
		}
		if wants["router"] {
			opt := routerOptions{
				Preset: *rtPreset, Seed: *seed, Replicas: *rtN, Workers: *rtWorkers,
				Seconds: *rtSecs, BudgetMS: *rtBudget, StallMS: *rtStallMS,
				StallPct: *rtStallPc, TailN: *rtTailN, InProcess: *rtInproc,
			}
			if err := runRouter(&report, stdout, opt); err != nil {
				fmt.Fprintln(stderr, "rexbench:", err)
				return 1
			}
		}
		if wants["sync"] {
			depths, err := parseIntList(*syDepths)
			if err != nil {
				fmt.Fprintln(stderr, "rexbench: -sync-depths:", err)
				return 2
			}
			opt := syncOptions{Preset: *syPreset, Seed: *seed, Depths: depths, Ops: *syOps}
			if err := runSync(&report, stdout, opt); err != nil {
				fmt.Fprintln(stderr, "rexbench:", err)
				return 1
			}
		}
		if wants["wal"] {
			for _, p := range strings.Split(*preset, ",") {
				opt := walOptions{
					Preset: strings.TrimSpace(p), Seed: *seed,
					Deltas: *walDeltas, Ops: *walOps,
				}
				if err := runWAL(&report, stdout, opt); err != nil {
					fmt.Fprintln(stderr, "rexbench:", err)
					return 1
				}
			}
		}
		if *benchOut != "" {
			if err := writeReport(&report, *benchOut, stdout); err != nil {
				fmt.Fprintln(stderr, "rexbench:", err)
				return 1
			}
		}
		if *compare != "" {
			baseline, err := loadReport(*compare)
			if err != nil {
				fmt.Fprintln(stderr, "rexbench:", err)
				return 1
			}
			compareReports(stdout, *compare, baseline, &report)
		}
	} else if *compare != "" {
		fmt.Fprintln(stderr, "rexbench: -compare requires -exp micro (nothing measured to compare)")
		return 2
	}
	return 0
}
