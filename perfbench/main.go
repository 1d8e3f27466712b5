// Command perfbench is the repository benchmark. It stands up the real
// serving stack in-process — serve.New over an in-memory store, or
// serve.NewStorage over a storage.Disk — and drives its /v1 API over
// loopback HTTP with a closed loop of two clients, each on one
// keep-alive connection, sending its next request only after the
// previous reply arrived. Every input is generated from -seed; the
// program under test only ever receives NDJSON and /v1 requests. Every
// answer is checked, and a wrong answer fails the run.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload analytic-hot --seed 1 --seconds 20 --trace 0
//
// With -trace 0 the last line of standard output is the JSON result
// with the end-to-end metrics; with -trace 1 the run is followed by an
// untraced replay through a timing storage.Engine wrapper and a traced
// replay, and the result carries the per-layer metrics. -smoke runs the
// same workload at a reduced scale, every check on. The workloads, the
// layer each stresses and bypasses, and the predictions each per-layer
// metric makes are described in WORKLOADS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	work     string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// defaultSeed is the seed runs use unless told otherwise; heldOutSeed is
// the seed a claimed gain must also hold on, which is never used while
// a change is written.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for gain claims: %d)", heldOutSeed))
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds of the closed loop")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: add the wrapper check and traced replay, report per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "reduced-scale inputs, every check on")
	fs.StringVar(&o.work, "work", ".bench_build/work", "directory for data directories and span files (spans-<workload>-seed<n>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	o.trace = trace == 1

	rep, err := execute(o, w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"perfbench": rep.detail}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(rep.result); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.result.Correct {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", o.workload, p)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
