// Command perfbench measures the simulator's own host cost — wall time,
// CPU time, memory and set-up time — on three simulator workloads, and
// in a traced run splits that cost by layer. See README.md.
//
// Every simulator run happens in a child process of its own, started by
// re-executing this binary; the parent times the children, checks their
// simulated results and prints one JSON result as its last line.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	if os.Getenv(envChild) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wlName := fs.String("workload", "", "workload to run: fuse-seqread, kern-overload or danaus-seqwrite")
	seed := fs.Int64("seed", defaultSeed, "seed of the workload's random input")
	seconds := fs.Float64("seconds", 10, "host seconds to keep repeating the workload for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	record := fs.String("record", "", "write the reference rows of every workload to this file and exit")
	summ := fs.Bool("summarize", false, "read result lines on stdin and print each metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *record != "":
		if err := recordReference(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *summ:
		if err := summarizeResults(os.Stdin, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadNamed(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, quick, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// summarizeResults reads benchmark result lines (the last line of
// several runs, one per line) and prints the summary of each metric.
func summarizeResults(r io.Reader, w io.Writer) error {
	values := map[string][]float64{}
	units := map[string]string{}
	sc := bufio.NewScanner(r)
	runs := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return fmt.Errorf("parse result line %d: %w", runs+1, err)
		}
		runs++
		if !res.Correct {
			fmt.Fprintf(w, "run %d: correct=false attempted=%d failed=%d\n", runs, res.Attempted, res.Failed)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read results: %w", err)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs\n", runs)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %-6s %v\n", name, units[name], summarize(values[name]))
	}
	return nil
}
