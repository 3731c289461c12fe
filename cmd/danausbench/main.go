// Command danausbench regenerates the paper's evaluation figures on the
// simulated testbed.
//
// Usage:
//
//	danausbench -list
//	danausbench -exp fig6a [-scale quick|default|paper]
//	danausbench -exp all -scale default
//	danausbench -exp faultsweep -trace trace.json -metrics metrics.json
//	danausbench -exp blamesweep -blame blame.json -whatif lockcs=0.5,flusher=pinned
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured record. With -trace and/or
// -metrics, every testbed built by the selected experiments records
// cross-layer spans and per-tenant metrics (see OBSERVABILITY.md);
// the trace loads in the Perfetto UI and -metrics accepts a .csv
// suffix for the time-series alone.
//
// -blame writes the latency blame analysis (critical-path buckets per
// tenant plus the interference matrix) of every recorded run to the
// given .json or .csv file. -whatif re-runs each blamesweep case under
// a modified cost model ("nic=2x,osd=2x,lockcs=0.5,flusher=pinned")
// and reports predicted-vs-measured per-tenant mean latency; with
// -blame the comparison also lands in <base>-whatif.json.
//
// Op-trace record/replay (see TRACES.md):
//
//	danausbench -exp tracesweep -record base.trace -diffcsv diff.csv
//	danausbench -replay base.trace -config K -diffcsv k.csv
//	danausbench -tracediff base.trace,k.trace
//
// -record captures the VFS op stream: with -exp tracesweep it writes
// the production-shaped baseline recording; with any other experiment
// it writes one trace per observed run. -replay reissues a recorded
// trace against the chosen client configuration and diffs the result
// against the recording; -tracediff compares two trace files offline.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/blame"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workloads"
)

var experimentsByName = map[string]func(experiments.Scale){
	"fig1":          runFig1,
	"fig6a":         runFig6a,
	"fig6b":         runFig6b,
	"fig6c":         runFig6c,
	"fig7a":         func(s experiments.Scale) { runKVScaleout(experiments.PhasePut, s) },
	"fig7b":         func(s experiments.Scale) { runKVScaleout(experiments.PhaseGet, s) },
	"fig7c":         func(s experiments.Scale) { runKVScaleup(experiments.PhasePut, s) },
	"fig7d":         func(s experiments.Scale) { runKVScaleup(experiments.PhaseGet, s) },
	"fig8":          runFig8,
	"fig9w":         func(s experiments.Scale) { runSeqIO(true, s) },
	"fig9r":         func(s experiments.Scale) { runSeqIO(false, s) },
	"fig10":         runFig10,
	"fig11a":        func(s experiments.Scale) { runFileIO(true, s) },
	"fig11b":        func(s experiments.Scale) { runFileIO(false, s) },
	"table1":        runTable1,
	"table2":        runTable2,
	"ablations":     runAblations,
	"faultsweep":    runFaultSweep,
	"blamesweep":    runBlameSweep,
	"fuzzsweep":     runFuzzSweep,
	"overloadsweep": runOverloadSweep,
	"crashsweep":    runCrashSweep,
	"tracesweep":    runTraceSweep,
	"monitorsweep":  runMonitorSweep,
}

// invariantFailures counts invariant violations observed by experiment
// runs: the fault, crash, overload and monitor sweep row checks, the
// tracesweep replay checks and the fuzzsweep invariant registry. They
// turn the exit status nonzero once every selected experiment has run
// and its artifacts are exported, so CI catches a run whose rows
// printed fine but broke a correctness property.
var invariantFailures int

// noteViolations reports invariant violations and accumulates them
// into the process exit status.
func noteViolations(vs []string) {
	for _, v := range vs {
		fmt.Fprintln(os.Stderr, "INVARIANT VIOLATION: "+v)
	}
	invariantFailures += len(vs)
}

// obsRuns collects one recorder per testbed built while -trace or
// -metrics is set, in construction order, for export at exit.
var obsRuns []obs.Run

// blameReports and whatIfReports accumulate the blame analyses of
// blamesweep runs (which manage their own recorders) for export via
// -blame; whatIf is the parsed -whatif spec, nil when unset.
var (
	blameReports  []blame.Report
	whatIfReports []blame.WhatIfReport
	whatIf        *blame.WhatIf
)

// recordTracePath (-record) receives the recorded op trace: the
// tracesweep baseline when -exp tracesweep, otherwise one trace per
// observed run. diffCSVPath (-diffcsv) receives trace-diff rows.
// sweepArtifacts routes the two into runTraceSweep when the sweep was
// selected directly (under -exp all the generic capture path owns
// them instead). opCaptures holds the generic per-run capture
// recorders, parallel to obsRuns.
var (
	recordTracePath string
	diffCSVPath     string
	sweepArtifacts  bool
	captureOps      bool
	opCaptures      []*trace.Recorder
)

// enableObservability points experiments.Observer at a recorder
// factory: each testbed gets its own recorder (runs stay separable in
// the exported artifacts) sampling utilization every 10 ms of virtual
// time. With -record, each recorder additionally feeds a per-run op
// capture.
func enableObservability() {
	experiments.Observer = func(tb *core.Testbed) {
		rec := obs.New(obs.Config{
			Clock:          tb.Eng.Now,
			SampleInterval: 10 * time.Millisecond,
		})
		tb.AttachObserver(rec)
		if captureOps {
			capRec := trace.NewRecorder(fmt.Sprintf("run%d", len(obsRuns)), 0)
			capRec.Attach(rec)
			opCaptures = append(opCaptures, capRec)
		}
		obsRuns = append(obsRuns, obs.Run{
			Label: fmt.Sprintf("run%d", len(obsRuns)),
			Rec:   rec,
		})
	}
}

func main() {
	exp := flag.String("exp", "", "experiment id (see -list) or 'all'")
	scaleName := flag.String("scale", "quick", "experiment scale: quick, default or paper")
	list := flag.Bool("list", false, "list experiments")
	tracePath := flag.String("trace", "", "write a Perfetto trace-event JSON of all runs to this file")
	metricsPath := flag.String("metrics", "", "write per-tenant metrics of all runs to this file (.json or .csv)")
	blamePath := flag.String("blame", "", "write the latency blame analysis of all runs to this file (.json or .csv)")
	whatIfSpec := flag.String("whatif", "", "blamesweep what-if spec, e.g. nic=2x,osd=2x,lockcs=0.5,flusher=pinned")
	fuzzN := flag.Int("fuzz", 0, "run a deterministic fuzz sweep of N scenarios and exit (see FUZZING in EXPERIMENTS.md)")
	fuzzSeed := flag.Int64("seed", 1, "scenario generator seed for -fuzz")
	fuzzDir := flag.String("fuzzdir", "fuzz-repros", "directory for shrunk reproducer specs of failing fuzz scenarios ('' disables)")
	fuzzSpec := flag.String("fuzzspec", "", "replay one fuzz reproducer spec file and check its invariants")
	flag.StringVar(&crashCSVPath, "crashcsv", "", "write crashsweep rows (recovery time, blast radius) as CSV to this file")
	flag.StringVar(&monitorBasePath, "monitor", "", "write monitorsweep telemetry artifacts (windowed CSV + alert ledger per case) using this base path")
	flag.StringVar(&recordTracePath, "record", "", "write the recorded op trace to this file (see TRACES.md)")
	flag.StringVar(&diffCSVPath, "diffcsv", "", "write trace-diff rows as CSV (with -exp tracesweep, -replay or -tracediff)")
	replayPath := flag.String("replay", "", "replay a recorded op trace against -config and exit")
	configName := flag.String("config", "D", "client configuration for -replay: D, F or K")
	admission := flag.Bool("admission", false, "enable the overload-admission policy for -replay")
	traceDiff := flag.String("tracediff", "", "compare two recorded op traces given as a.trace,b.trace and exit")
	flag.Parse()

	if *traceDiff != "" {
		runTraceDiff(*traceDiff, diffCSVPath)
		return
	}

	if *fuzzSpec != "" {
		f, err := os.Open(*fuzzSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc, err := fuzz.ParseSpec(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if len(fuzz.RunSpec(os.Stdout, sc)) > 0 {
			os.Exit(1)
		}
		return
	}
	if *fuzzN > 0 {
		sum, err := fuzz.Sweep(fuzz.Options{
			N: *fuzzN, Seed: *fuzzSeed, Out: os.Stdout, ReproDir: *fuzzDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if sum.Violations > 0 {
			os.Exit(1)
		}
		return
	}

	if *whatIfSpec != "" {
		w, err := blame.ParseWhatIf(*whatIfSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		whatIf = &w
		if *exp != "blamesweep" && *exp != "all" {
			fmt.Fprintln(os.Stderr, "-whatif requires -exp blamesweep (or all)")
			os.Exit(2)
		}
	}

	if *list || (*exp == "" && *replayPath == "") {
		fmt.Println("experiments:")
		names := make([]string, 0, len(experimentsByName))
		for name := range experimentsByName {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Println("  " + name)
		}
		return
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.QuickScale
	case "default":
		scale = experiments.DefaultScale
	case "paper":
		scale = experiments.PaperScale
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	if *replayPath != "" {
		if *exp != "" {
			fmt.Fprintln(os.Stderr, "-replay conflicts with -exp "+*exp)
			os.Exit(2)
		}
		runReplayFile(*replayPath, *configName, *admission, scale)
		exitOnViolations()
		return
	}

	// tracesweep writes its own -record/-diffcsv artifacts when selected
	// directly; any other experiment gets a generic per-run op capture.
	sweepArtifacts = *exp == "tracesweep"
	captureOps = recordTracePath != "" && !sweepArtifacts

	if *tracePath != "" || *metricsPath != "" || *blamePath != "" || captureOps {
		enableObservability()
	}

	if *exp == "all" {
		names := make([]string, 0, len(experimentsByName))
		for name := range experimentsByName {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			runOne(name, scale)
		}
		exportObs(*tracePath, *metricsPath)
		exportBlame(*blamePath)
		exportTraces(recordTracePath)
		exitOnViolations()
		return
	}
	if _, ok := experimentsByName[*exp]; !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	runOne(*exp, scale)
	exportObs(*tracePath, *metricsPath)
	exportBlame(*blamePath)
	exportTraces(recordTracePath)
	exitOnViolations()
}

// exportTraces writes the generic per-run op captures collected via
// the Observer hook: to the given path directly for a single run, or
// to <base>-runN<ext> each when several testbeds recorded.
func exportTraces(path string) {
	if path == "" || len(opCaptures) == 0 {
		return
	}
	ext := filepath.Ext(path)
	for i, capRec := range opCaptures {
		out := path
		if len(opCaptures) > 1 {
			out = strings.TrimSuffix(path, ext) + fmt.Sprintf("-run%d", i) + ext
		}
		tr := capRec.Snapshot()
		if err := tr.WriteFile(out); err != nil {
			fmt.Fprintf(os.Stderr, "trace record: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("record: %d op(s) -> %s\n", len(tr.Ops), out)
	}
}

// parseConfig maps a -config letter onto the client configuration.
func parseConfig(name string) (core.Configuration, error) {
	switch strings.ToUpper(name) {
	case "D":
		return core.ConfigD, nil
	case "F":
		return core.ConfigF, nil
	case "K":
		return core.ConfigK, nil
	}
	return core.ConfigD, fmt.Errorf("unknown configuration %q (want D, F or K)", name)
}

// runReplayFile replays a recorded trace file against one client
// configuration and diffs the result against the recording.
func runReplayFile(path, configName string, admission bool, scale experiments.Scale) {
	tr, err := trace.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg, err := parseConfig(configName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	c := experiments.TraceCase{Label: strings.ToUpper(configName), Config: cfg, Admission: admission}
	if admission {
		c.Label += "+adm"
	}
	fmt.Printf("Replay %s (label %q, %d ops) under %s\n", path, tr.Label, len(tr.Ops), c.Label)
	replayed, row := experiments.ReplayTraceUnder(tr, c, scale)
	fmt.Println("  " + row.String())
	noteViolations(experiments.TraceRowViolations(row))
	if recordTracePath != "" {
		if err := replayed.WriteFile(recordTracePath); err != nil {
			fmt.Fprintf(os.Stderr, "trace record: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("record: %d op(s) -> %s\n", len(replayed.Ops), recordTracePath)
	}
	if diffCSVPath != "" {
		writeDiffCSV(diffCSVPath, trace.Compare(tr, replayed))
	}
}

// runTraceDiff compares two trace files given as "a.trace,b.trace".
func runTraceDiff(spec, csvPath string) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fmt.Fprintln(os.Stderr, "-tracediff wants two comma-separated trace files")
		os.Exit(2)
	}
	a, err := trace.ReadFile(parts[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	b, err := trace.ReadFile(parts[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	d := trace.Compare(a, b)
	d.Render(os.Stdout)
	if csvPath != "" {
		writeDiffCSV(csvPath, d)
	}
}

// writeDiffCSV writes one diff's rows to a CSV file.
func writeDiffCSV(path string, d *trace.Diff) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diff csv: %v\n", err)
		os.Exit(1)
	}
	err = d.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "diff csv: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("diff: %d row(s) -> %s\n", len(d.Rows), path)
}

// exitOnViolations terminates with a nonzero status if any experiment
// reported an invariant violation.
func exitOnViolations() {
	if invariantFailures > 0 {
		fmt.Fprintf(os.Stderr, "%d invariant violation(s)\n", invariantFailures)
		os.Exit(1)
	}
}

// exportBlame writes the blame reports of all runs — the blamesweep's
// own plus an analysis of every recorder the -trace/-metrics hook
// collected — to the requested file, and any what-if comparisons next
// to it as <base>-whatif.json.
func exportBlame(path string) {
	if path == "" {
		return
	}
	reports := append([]blame.Report{}, blameReports...)
	for _, run := range obsRuns {
		reports = append(reports, blame.Analyze(run.Label, run.Rec))
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blame export: %v\n", err)
		os.Exit(1)
	}
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		err = blame.WriteCSV(f, reports)
	} else {
		err = blame.WriteJSON(f, reports)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "blame export: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("blame: %d run(s) -> %s\n", len(reports), path)

	if len(whatIfReports) > 0 {
		wiPath := strings.TrimSuffix(path, filepath.Ext(path)) + "-whatif.json"
		wf, err := os.Create(wiPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "what-if export: %v\n", err)
			os.Exit(1)
		}
		for _, rep := range whatIfReports {
			if err == nil {
				err = blame.WriteWhatIfJSON(wf, rep)
			}
		}
		if cerr := wf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "what-if export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("what-if: %d comparison(s) -> %s\n", len(whatIfReports), wiPath)
	}
}

// exportObs writes the collected recorders to the requested artifact
// files and reports where they landed.
func exportObs(tracePath, metricsPath string) {
	if tracePath != "" {
		if err := obs.WriteTraceFile(tracePath, obsRuns); err != nil {
			fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d run(s) -> %s\n", len(obsRuns), tracePath)
	}
	if metricsPath != "" {
		if err := obs.WriteMetricsFile(metricsPath, obsRuns); err != nil {
			fmt.Fprintf(os.Stderr, "metrics export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: %d run(s) -> %s\n", len(obsRuns), metricsPath)
	}
}

func runOne(name string, scale experiments.Scale) {
	fmt.Printf("=== %s (factor %.2f, window %v) ===\n", name, scale.Factor, scale.Duration)
	start := time.Now()
	experimentsByName[name](scale)
	fmt.Printf("--- %s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
}

func runFig1(scale experiments.Scale) {
	fmt.Println("Fig 1: Fileserver under kernel I/O contention (kernel client only)")
	for _, c := range experiments.Fig1Cases() {
		row := experiments.RunInterference(c, scale)
		printInterference(row)
	}
}

func runFig6a(scale experiments.Scale) {
	fmt.Println("Fig 6a: Fileserver vs RandomIO interference (K vs D)")
	for _, c := range experiments.Fig6aCases() {
		printInterference(experiments.RunInterference(c, scale))
	}
}

func runFig6b(scale experiments.Scale) {
	fmt.Println("Fig 6b: Fileserver vs Webserver interference (K vs D)")
	for _, c := range experiments.Fig6bCases() {
		printInterference(experiments.RunInterference(c, scale))
	}
}

func printInterference(row experiments.InterferenceRow) {
	fmt.Printf("  %-14s %9.1f MB/s   neighbor-cores %6.1f%%   lock wait/req %-12v hold/req %v\n",
		row.Label, row.FLSThroughputMBps, row.NeighborCoreUtilPct, row.LockWaitPerReq, row.LockHoldPerReq)
}

func runFig6c(scale experiments.Scale) {
	fmt.Println("Fig 6c: Sysbench and Fileserver latency under colocation")
	for _, c := range experiments.Fig6cCases() {
		row := experiments.RunSysbench(c, scale)
		fmt.Printf("  %-14s ssb-p99 %-12v fls-avg %-12v ssb-cores %6.1f%%\n",
			row.Label, row.SSBLatencyP99, row.FLSLatencyAvg, row.SSBCoreUtilPct)
	}
}

func runKVScaleout(phase experiments.KVPhase, scale experiments.Scale) {
	label := map[experiments.KVPhase]string{experiments.PhasePut: "put", experiments.PhaseGet: "get (out-of-core)"}
	fmt.Printf("Fig 7 scaleout: KV %s latency, private client per pool\n", label[phase])
	for _, cfg := range experiments.Fig7aConfigs() {
		for _, n := range experiments.Fig7ScaleoutCounts() {
			fmt.Println("  " + experiments.RunKVScaleout(cfg, n, phase, scale).String())
		}
	}
}

func runKVScaleup(phase experiments.KVPhase, scale experiments.Scale) {
	label := map[experiments.KVPhase]string{experiments.PhasePut: "put", experiments.PhaseGet: "get"}
	fmt.Printf("Fig 7 scaleup: KV %s latency, cloned containers over shared client\n", label[phase])
	for _, cfg := range experiments.Fig7cConfigs() {
		for _, n := range experiments.Fig7ScaleupCounts() {
			fmt.Println("  " + experiments.RunKVScaleup(cfg, n, phase, scale).String())
		}
	}
}

func runFig8(scale experiments.Scale) {
	fmt.Println("Fig 8: webserver container startup scaleup (real time, context switches)")
	for _, cfg := range experiments.Fig8Configs() {
		for _, n := range experiments.Fig8Counts() {
			fmt.Println("  " + experiments.RunStartupScaleup(cfg, n, scale).String())
		}
	}
}

func runSeqIO(write bool, scale experiments.Scale) {
	kind := "Seqread"
	if write {
		kind = "Seqwrite"
	}
	fmt.Printf("Fig 9: %s scaleout\n", kind)
	for _, cfg := range []core.Configuration{core.ConfigD, core.ConfigF, core.ConfigK} {
		for _, n := range experiments.Fig9PoolCounts() {
			fmt.Println("  " + experiments.RunSeqIOScaleout(cfg, n, write, scale).String())
		}
	}
}

func runFig10(scale experiments.Scale) {
	fmt.Println("Fig 10: Fileserver scaleout")
	for _, cfg := range []core.Configuration{core.ConfigD, core.ConfigF, core.ConfigK} {
		for _, n := range experiments.Fig10PoolCounts() {
			fmt.Println("  " + experiments.RunFileserverScaleout(cfg, n, scale).String())
		}
	}
}

func runFileIO(append bool, scale experiments.Scale) {
	kind := "Fileread"
	if append {
		kind = "Fileappend"
	}
	fmt.Printf("Fig 11: %s scaleup (timespan, max memory)\n", kind)
	for _, cfg := range experiments.Fig11Configs() {
		for _, n := range experiments.Fig11Counts() {
			fmt.Println("  " + experiments.RunFileIOScaleup(cfg, n, append, scale).String())
		}
	}
}

func runAblations(scale experiments.Scale) {
	fmt.Println("Design-choice ablations (DESIGN.md / paper §3, §6.3.2)")
	for _, row := range experiments.AllAblations(scale) {
		fmt.Println("  " + row.String())
	}
}

func runBlameSweep(scale experiments.Scale) {
	fmt.Println("Blame sweep: critical-path decomposition and per-tenant interference")
	for _, c := range experiments.BlameSweepCases() {
		rep, _ := experiments.RunBlameSweep(c, scale, nil)
		blameReports = append(blameReports, rep)
		blame.Render(os.Stdout, rep)
		if whatIf != nil {
			measured, _ := experiments.RunBlameSweep(c, scale, whatIf)
			cmp := blame.CompareWhatIf(*whatIf, rep, measured)
			whatIfReports = append(whatIfReports, cmp)
			fmt.Println()
			blame.RenderWhatIf(os.Stdout, cmp)
		}
		fmt.Println()
	}
}

func runFuzzSweep(scale experiments.Scale) {
	// The experiment-family entry point runs a fixed-seed sweep sized
	// by scale; heavier audits use `danausbench -fuzz N -seed S`.
	n := 10
	switch {
	case scale.Factor >= 1:
		n = 200
	case scale.Factor >= 0.1:
		n = 50
	}
	fmt.Printf("Fuzz sweep: %d seeded scenarios through the invariant registry\n", n)
	sum, err := fuzz.Sweep(fuzz.Options{N: n, Seed: 1, Out: os.Stdout})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	noteViolations(fuzzViolations(sum))
}

// fuzzViolations describes a fuzz sweep's violations, one line per
// checker that fired (the sweep itself printed each one).
func fuzzViolations(sum fuzz.Summary) []string {
	names := make([]string, 0, len(sum.ByChecker))
	for name := range sum.ByChecker {
		names = append(names, name)
	}
	sort.Strings(names)
	vs := make([]string, len(names))
	for i, name := range names {
		vs[i] = fmt.Sprintf("fuzzsweep: %d %s violation(s)", sum.ByChecker[name], name)
	}
	return vs
}

func runFaultSweep(scale experiments.Scale) {
	fmt.Println("Fault sweep: recovery and isolation under deterministic fault schedules")
	for _, c := range experiments.FaultSweepCases(scale) {
		row := experiments.RunFaultSweep(c, scale)
		fmt.Println("  " + row.String())
		noteViolations(experiments.FaultRowViolations(row))
	}
}

// crashCSVPath, when set via -crashcsv, receives the crashsweep rows
// as CSV (one line per case) for CI artifact collection.
var crashCSVPath string

func runCrashSweep(scale experiments.Scale) {
	fmt.Println("Crash sweep: recovery time and blast radius of client-side crashes (D vs F vs K)")
	var rows []experiments.CrashSweepRow
	for _, c := range experiments.CrashSweepCases() {
		row := experiments.RunCrashSweep(c, scale)
		fmt.Println("  " + row.String())
		noteViolations(experiments.CrashRowViolations(row))
		rows = append(rows, row)
	}
	if crashCSVPath == "" {
		return
	}
	f, err := os.Create(crashCSVPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashsweep csv: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, "label,config,replication,victim_mbps,victim_errors,bystander_mbps,bystander_errors,affected_tenants,queue_shed,recovery_ns,victim_repair_ns,durability_loss_bytes")
	for _, r := range rows {
		fmt.Fprintf(f, "%s,%s,%d,%.2f,%d,%.2f,%d,%d,%d,%d,%d,%d\n",
			r.Label, r.Config, r.Replication,
			r.VictimWriteMBps, r.VictimErrors,
			r.BystanderMBps, r.BystanderErrors,
			r.AffectedTenants, r.QueueShed,
			r.RecoveryTime.Nanoseconds(), r.VictimRepair.Nanoseconds(),
			r.DurabilityViolation)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "crashsweep csv: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("crashsweep: %d row(s) -> %s\n", len(rows), crashCSVPath)
}

// monitorBasePath, when set via -monitor, receives the live-telemetry
// artifacts of each monitorsweep case: <base>-<case>-windows.csv (the
// windowed per-tenant aggregates) and <base>-<case>-alerts.csv (the SLO
// burn-rate alert ledger). Both are deterministic: repeated runs of the
// same scale produce byte-identical files.
var monitorBasePath string

func runMonitorSweep(scale experiments.Scale) {
	fmt.Println("Monitor sweep: live SLO burn-rate alert timelines under overload and crash (D+adm vs K)")
	for _, c := range experiments.MonitorCases() {
		row := experiments.RunMonitorCase(c, scale)
		fmt.Println("  " + row.String())
		for _, e := range row.Alerts {
			mark := "  "
			if e.T > row.MeasureEnd {
				mark = " *" // post-measurement drain event
			}
			fmt.Println("   " + mark + " " + e.String())
		}
		noteViolations(experiments.MonitorRowViolations(row))
		exportMonitorCase(row)
	}
}

// exportMonitorCase writes one monitorsweep case's windows CSV and
// alert ledger under monitorBasePath.
func exportMonitorCase(row experiments.MonitorRow) {
	if monitorBasePath == "" {
		return
	}
	slug := strings.ToLower(row.Label + "-" + row.Fault)
	slug = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		}
		return '_'
	}, slug)
	ext := filepath.Ext(monitorBasePath)
	base := strings.TrimSuffix(monitorBasePath, ext)
	write := func(kind string, emit func(w *os.File) error) {
		path := fmt.Sprintf("%s-%s-%s.csv", base, slug, kind)
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "monitorsweep %s: %v\n", kind, err)
			os.Exit(1)
		}
		err = emit(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "monitorsweep %s: %v\n", kind, err)
			os.Exit(1)
		}
		fmt.Printf("monitorsweep: %s\n", path)
	}
	write("windows", func(f *os.File) error { return row.Monitor.WriteWindowsCSV(f) })
	write("alerts", func(f *os.File) error { return row.Monitor.WriteAlertsCSV(f) })
}

func runTraceSweep(scale experiments.Scale) {
	fmt.Println("Trace sweep: record a production-shaped run under D, replay it byte-identically under other configs")
	res := experiments.RunTraceSweep(scale)
	for _, row := range res.Rows {
		fmt.Println("  " + row.String())
		noteViolations(experiments.TraceRowViolations(row))
	}
	if !sweepArtifacts {
		return
	}
	if recordTracePath != "" {
		if err := res.Baseline.WriteFile(recordTracePath); err != nil {
			fmt.Fprintf(os.Stderr, "trace record: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("record: %d op(s) -> %s\n", len(res.Baseline.Ops), recordTracePath)
	}
	if diffCSVPath != "" {
		writeSweepDiffCSV(diffCSVPath, res)
	}
}

// writeSweepDiffCSV folds every replay's diff against the baseline
// into one CSV, with a leading column naming the replay case.
func writeSweepDiffCSV(path string, res *experiments.TraceSweepResult) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diff csv: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, "replay,tenant,op,count_a,count_b,p50_a_us,p99_a_us,p999_a_us,p50_b_us,p99_b_us,p999_b_us,ratio_p99,ratio_p999")
	us := func(v time.Duration) float64 { return float64(v) / float64(time.Microsecond) }
	rows := 0
	for _, rt := range res.Replays {
		d := trace.Compare(res.Baseline, rt)
		for _, r := range d.Rows {
			kind := r.Kind
			if kind == "" {
				kind = "*"
			}
			fmt.Fprintf(f, "%s,%s,%s,%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.3f,%.3f\n",
				rt.Label, r.Tenant, kind, r.A.Count, r.B.Count,
				us(r.A.P50), us(r.A.P99), us(r.A.P999),
				us(r.B.P50), us(r.B.P99), us(r.B.P999),
				r.RatioP99(), r.RatioP999())
			rows++
		}
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "diff csv: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("diff: %d row(s) -> %s\n", rows, path)
}

func runOverloadSweep(scale experiments.Scale) {
	fmt.Println("Overload sweep: victim tail latency and load shedding under open-loop overload")
	for _, row := range experiments.RunOverloadSweep(scale) {
		fmt.Println("  " + row.String())
		noteViolations(experiments.OverloadRowViolations(row))
	}
}

func runTable2(experiments.Scale) {
	fmt.Println("Table 2: contention workload symbols")
	for _, row := range workloads.Table2() {
		fmt.Printf("  %-8s %s\n", row[0], row[1])
	}
}

func runTable1(experiments.Scale) {
	fmt.Println("Table 1: client system components")
	fmt.Println("  Symbol  Union           UnionCache  Backend     ClientCache")
	rows := [][5]string{
		{"D", "Danaus (opt.)", "-", "Danaus", "UlcC"},
		{"K", "-", "-", "CephFS", "PagC"},
		{"F", "-", "-", "ceph-fuse", "UlcC"},
		{"FP", "-", "-", "ceph-fuse", "UlcC+PagC"},
		{"K/K", "AUFS", "PagC", "CephFS", "PagC"},
		{"F/K", "unionfs-fuse", "-", "CephFS", "PagC"},
		{"F/F", "unionfs-fuse", "-", "ceph-fuse", "UlcC"},
		{"FP/FP", "unionfs-fuse", "PagC", "ceph-fuse", "UlcC+PagC"},
	}
	for _, r := range rows {
		fmt.Printf("  %-7s %-15s %-11s %-11s %s\n", r[0], r[1], r[2], r[3], r[4])
	}
}
