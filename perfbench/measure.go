package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// setupRuns is how many extra children of an untraced run only set up
// the testbed before each full run, so that the reported set-up time is
// a median of many, taken over the whole run rather than in one burst.
const setupRuns = 10

// childTimeout bounds one child process, so that a hung simulation
// still lets the run end within its time limit.
const childTimeout = 120 * time.Second

// childProcs caps the children's GOMAXPROCS. The simulation runs one
// process at a time; the second processor shows the garbage collector's
// background work in cpu_s.
const childProcs = 2

//go:embed reference.txt
var referenceText string

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs workload w in child processes for about d of host time
// and checks every run's simulated results. Untraced, it reports the
// end-to-end metrics; traced, it alternates untraced and traced runs and
// reports the per-layer metrics. Progress goes to log.
func measure(w workload, seed int64, d time.Duration, traced bool, sz size, log io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, fmt.Errorf("locate own binary: %w", err)
	}
	ref, err := parseReference(referenceText)
	if err != nil {
		return result{}, err
	}
	run := func(mode string) (report, error) {
		return runChild(self, w.name, seed, mode, sz)
	}
	var problems []string
	var setups []float64
	setupOnly := func() error {
		for i := 0; i < setupRuns; i++ {
			rep, err := run(modeSetup)
			if err != nil {
				return err
			}
			setups = append(setups, rep.SetupS)
		}
		return nil
	}

	var untracedReps, tracedReps []report
	start := time.Now()
	for len(problems) == 0 {
		if !traced {
			if err := setupOnly(); err != nil {
				problems = append(problems, err.Error())
				break
			}
		}
		rep, err := run(modeTimed)
		if err != nil {
			problems = append(problems, err.Error())
			break
		}
		untracedReps = append(untracedReps, rep)
		fmt.Fprintf(log, "untraced run %d: wall %.3f s, cpu %.3f s, rss %.1f MiB, setup %.4f s\n",
			len(untracedReps), rep.WallS, rep.CPUS, rep.PeakRSSMB, rep.SetupS)
		if traced && (len(tracedReps) == 0 || time.Since(start) < d) {
			rep, err := run(modeTraced)
			if err != nil {
				problems = append(problems, err.Error())
				break
			}
			tracedReps = append(tracedReps, rep)
			fmt.Fprintf(log, "traced run %d: wall %.3f s, %d events\n", len(tracedReps), rep.WallS, rep.Engine.Events)
		}
		if time.Since(start) >= d {
			break
		}
	}

	all := append(append([]report(nil), untracedReps...), tracedReps...)
	var res result
	for _, rep := range all {
		res.Attempted += rep.Ops
		if len(rep.Problems) > 0 {
			res.Failed += rep.Ops
		} else {
			res.Failed += rep.Failed
		}
		problems = append(problems, rep.Problems...)
	}
	if len(all) > 0 {
		fmt.Fprintf(log, "row: %s\n", all[0].Row)
		problems = append(problems, checkRows(w, seed, sz, ref, all)...)
	}
	if len(problems) > 0 {
		// A run that fails its self-check counts all of its operations
		// as failed.
		res.Failed = res.Attempted
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	for _, p := range problems {
		fmt.Fprintln(log, "check failed:", p)
	}
	res.Correct = len(problems) == 0

	res.Metrics = map[string]metric{}
	if !traced {
		// Reported even when no child finished, as 0 then.
		res.Metrics["op_success_pct"] = metric{100 * float64(res.Attempted-res.Failed) / float64(res.Attempted), "%"}
	}
	if len(untracedReps) == 0 || (traced && len(tracedReps) == 0) {
		return res, nil
	}
	wall := medianField(untracedReps, func(r report) float64 { return r.WallS })
	if !traced {
		for _, rep := range untracedReps {
			setups = append(setups, rep.SetupS)
		}
		res.Metrics["wall_s"] = metric{wall, "s"}
		res.Metrics["cpu_s"] = metric{medianField(untracedReps, func(r report) float64 { return r.CPUS }), "s"}
		res.Metrics["peak_rss_mb"] = metric{medianField(untracedReps, func(r report) float64 { return r.PeakRSSMB }), "MiB"}
		res.Metrics["setup_s"] = metric{medianOf(setups), "s"}
		return res, nil
	}
	layerMetrics(res.Metrics, tracedReps, wall)
	return res, nil
}

// layerMetrics fills the per-layer metrics of traced runs. wall is the
// median untraced wall time, the base of the per-event cost and of the
// tracing overhead.
func layerMetrics(m map[string]metric, reps []report, wall float64) {
	med := func(f func(report) float64) float64 { return medianField(reps, f) }
	events := med(func(r report) float64 { return float64(r.Engine.Events) })
	alloc := med(func(r report) float64 { return float64(r.AllocBytes) })
	m["sim.events"] = metric{events, "count"}
	m["sim.callbacks"] = metric{med(func(r report) float64 { return float64(r.Engine.Callbacks) }), "count"}
	m["sim.resumes"] = metric{med(func(r report) float64 { return float64(r.Engine.Resumes) }), "count"}
	m["sim.proc_switches"] = metric{med(func(r report) float64 { return float64(r.Engine.Switches) }), "count"}
	m["sim.procs"] = metric{med(func(r report) float64 { return float64(r.Engine.Procs) }), "count"}
	m["runtime.alloc_mb"] = metric{alloc / (1 << 20), "MiB"}
	m["runtime.gc_cycles"] = metric{med(func(r report) float64 { return float64(r.GCCycles) }), "count"}
	if events > 0 {
		m["sim.host_ns_per_event"] = metric{wall * 1e9 / events, "ns"}
		m["runtime.alloc_bytes_per_event"] = metric{alloc / events, "B"}
	}
	m["trace.overhead_pct"] = metric{100 * (med(func(r report) float64 { return r.WallS })/wall - 1), "%"}
	for l := range reps[0].Layers {
		name := l + ".self_pct"
		if strings.HasPrefix(l, "runtime.") || l == simHeap {
			name = l + "_pct"
		}
		m[name] = metric{med(func(r report) float64 { return r.Layers[l] }), "%"}
	}
}

func medianField(reps []report, f func(report) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return medianOf(xs)
}

// checkRows checks that every run printed the same simulated row, and
// that the row equals the recorded reference wherever the workload's
// input is the reference's.
func checkRows(w workload, seed int64, sz size, ref map[string]string, reps []report) []string {
	var problems []string
	for i, rep := range reps[1:] {
		if rep.Row != reps[0].Row {
			problems = append(problems, fmt.Sprintf("run %d printed a different row than run 1:\n  %s\n  %s", i+2, rep.Row, reps[0].Row))
		}
	}
	if w.seeded && seed != defaultSeed {
		return problems
	}
	want, ok := ref[referenceKey(sz, w)]
	switch {
	case !ok:
		problems = append(problems, fmt.Sprintf("no reference row for %s", referenceKey(sz, w)))
	case reps[0].Row != want:
		problems = append(problems, fmt.Sprintf("row differs from the reference:\n  got  %s\n  want %s", reps[0].Row, want))
	}
	return problems
}

// runChild runs one workload in a child process and returns its report
// with the process's CPU time and peak RSS.
func runChild(self, workload string, seed int64, mode string, sz size) (report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-mode", mode, "-size", sz.name)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	procs := runtime.NumCPU()
	if procs > childProcs {
		procs = childProcs
	}
	cmd.Env = append(os.Environ(), envChild+"=1", "GOMAXPROCS="+strconv.Itoa(procs))
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("%s %s run: %w", workload, mode, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("%s %s run: parse report: %w", workload, mode, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return report{}, errors.New("child resource usage unavailable")
	}
	rep.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
	return rep, nil
}

func referenceKey(sz size, w workload) string { return sz.name + " " + w.name }

// parseReference reads reference rows, one "<size> <workload> <row>"
// per line; blank lines and lines starting with # are skipped.
func parseReference(text string) (map[string]string, error) {
	ref := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("reference.txt line %d: want <size> <workload> <row>", i+1)
		}
		ref[parts[0]+" "+parts[1]] = parts[2]
	}
	return ref, nil
}

// recordReference writes the rows the program's own experiment runners
// print at the default seed, for every size and workload, to path.
// kern-overload's reference comes from experiments.RunOverloadCase, so
// the benchmark's rebuilt runner is checked against it.
func recordReference(path string) error {
	var b strings.Builder
	b.WriteString("# Simulated result rows at the default seed. Regenerate only for an\n")
	b.WriteString("# intended change of simulation results: go run . -record reference.txt\n")
	noHook := func(*core.Testbed) {}
	for _, sz := range []size{quick, tiny} {
		for _, w := range workloadList {
			var row string
			if w.name == "kern-overload" {
				row = rowString(experiments.RunOverloadCase(kernOverloadCase, sz.scale))
			} else {
				row = w.run(defaultSeed, sz, noHook).row
			}
			fmt.Fprintf(&b, "%s %s\n", referenceKey(sz, w), row)
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("write reference: %w", err)
	}
	return nil
}
