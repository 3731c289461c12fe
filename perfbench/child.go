package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// envChild in a process's environment makes the binary run one workload
// as a child instead of the parent.
const envChild = "PERFBENCH_CHILD"

// Child modes.
const (
	modeTimed  = "timed"  // untraced run: wall and set-up time
	modeTraced = "traced" // engine tracer and CPU profile installed
	modeSetup  = "setup"  // stop at the first engine event
)

// report is what a child prints about its one run, as a JSON line. The
// parent adds the process's CPU time and peak RSS.
type report struct {
	Row      string   `json:"row,omitempty"`
	Ops      uint64   `json:"ops"`
	Failed   uint64   `json:"failed"`
	Problems []string `json:"problems,omitempty"`
	WallS    float64  `json:"wall_s"`
	// SetupS is the process's CPU time (user+sys, all threads) when the
	// engine processes its first event: exec, Go start-up, package
	// initialisation, testbed, pools and containers. CPU time leaves out
	// the host's scheduling delays, which make wall time much noisier on
	// a shared host.
	SetupS float64 `json:"setup_s"`

	// Traced runs only.
	Engine     engineCounts       `json:"engine"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCCycles   uint32             `json:"gc_cycles"`
	Layers     map[string]float64 `json:"layers,omitempty"`

	CPUS      float64 `json:"-"`
	PeakRSSMB float64 `json:"-"`
}

// engineCounts are the engine's work as seen by a passive tracer.
type engineCounts struct {
	Events    uint64 `json:"events"`
	Callbacks uint64 `json:"callbacks"`
	Resumes   uint64 `json:"resumes"`
	// Switches counts resumes of a process other than the last one
	// resumed: each is a goroutine hand-off.
	Switches uint64 `json:"switches"`
	// Procs is the highest process id resumed; ids are assigned in
	// order, so it counts the processes spawned and run.
	Procs    uint64 `json:"procs"`
	lastProc int
}

func (c *engineCounts) observe(ev sim.TraceEvent) {
	c.Events++
	switch ev.Kind {
	case sim.TraceCallback:
		c.Callbacks++
	case sim.TraceResume:
		c.Resumes++
		if ev.ProcID != c.lastProc {
			c.Switches++
			c.lastProc = ev.ProcID
		}
		if uint64(ev.ProcID) > c.Procs {
			c.Procs = uint64(ev.ProcID)
		}
	}
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	wlName := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", defaultSeed, "seed")
	mode := fs.String("mode", modeTimed, "timed, traced or setup")
	sizeName := fs.String("size", quick.name, "size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadNamed(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	sz, err := sizeNamed(*sizeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	var rep report
	hook := func(tb *core.Testbed) {
		eng := tb.Eng
		first := true
		eng.SetTracer(func(ev sim.TraceEvent) {
			if first {
				first = false
				rep.SetupS = processCPU().Seconds()
				switch *mode {
				case modeSetup:
					emit(rep)
					os.Exit(0)
				case modeTimed:
					eng.SetTracer(nil)
					return
				}
			}
			rep.Engine.observe(ev)
		})
	}

	var prof bytes.Buffer
	if *mode == modeTraced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child: start profile:", err)
			return 1
		}
	}
	t0 := time.Now()
	out := w.run(*seed, sz, hook)
	rep.WallS = time.Since(t0).Seconds()
	rep.Row, rep.Ops, rep.Failed, rep.Problems = out.row, out.ops, out.failed, out.problems

	if *mode == modeTraced {
		// Read the allocation counters before stopping and decoding the
		// profile, whose own allocations are not the simulator's.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep.AllocBytes, rep.GCCycles = ms.TotalAlloc, ms.NumGC
		pprof.StopCPUProfile()
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
		rep.Layers = attribute(samples)
	}
	emit(rep)
	return 0
}

func emit(rep report) {
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // every field of report marshals
	}
	fmt.Println(string(line))
}

// processCPU returns the user and system CPU time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
