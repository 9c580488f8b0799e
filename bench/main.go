// Command bench is the detector's one benchmark: five seeded workloads
// driven through the public functions of the layers they name, every
// pass verified against a reference verdict set, end-to-end metrics from
// untraced timed passes and a per-layer budget from a traced run. See
// README.md next to this file; BENCHMARK.json at the repository root is
// the contract the numbers are judged by.
//
//	bash bench/run.sh --workload serve_bulk --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                      # all five, both runs, one result file
//	bash bench/run.sh -compare A.json B.json
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
)

// resultFile is what the all-workloads mode writes and -compare reads.
type resultFile struct {
	Env     environment `json:"env"`
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Results []*result   `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: one of the five names, or all")
	seed := fs.Uint64("seed", 1, "derives every generated input")
	seconds := fs.Float64("seconds", 10, "how long the timed passes of one run last")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from the traced run")
	quick := fs.Bool("quick", false, "smoke sizes: inputs ÷ 20, one set-up, one pass")
	compare := fs.Bool("compare", false, "compare two result files (each side may be a comma-separated list of runs): -compare A.json B.json")
	out := fs.String("out", "", "all-workloads mode: result file (default bench/out/results-seed<seed>.json)")
	outDir := fs.String("outdir", filepath.Join("bench", "out"), "where trace files, profiles and result files go")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	// The load model pins both cores: two shards, two loopback workers.
	// On one CPU the sharded and cluster numbers would measure the
	// scheduler, so refuse rather than report.
	if runtime.NumCPU() < procs {
		fmt.Fprintf(stderr, "bench: needs %d CPUs, this machine has %d\n", procs, runtime.NumCPU())
		return 1
	}
	runtime.GOMAXPROCS(procs)
	env := readEnvironment()
	o := options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Quick: *quick, OutDir: *outDir}
	fmt.Fprintf(stdout, "env cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s kernels=float:%s,packed:%s seed=%d seconds=%g\n",
		env.CPU, env.NProc, env.GOMAXPROCS, env.Go, env.Commit, env.KernelFloat, env.KernelPacked, o.Seed, o.Seconds)

	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printResult(stdout, res)
		return printContractLine(stdout, stderr, res)
	}

	file := resultFile{Env: env, Seed: o.Seed, Seconds: o.Seconds}
	allCorrect := true
	for i := range workloads {
		for _, traced := range []bool{false, true} {
			o.Trace = traced
			res, err := runWorkload(&workloads[i], o)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			printResult(stdout, res)
			file.Results = append(file.Results, res)
			allCorrect = allCorrect && res.Correct
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(o.OutDir, fmt.Sprintf("results-seed%d.json", o.Seed))
	}
	if err := writeJSON(path, &file); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if !allCorrect {
		return 1
	}
	return 0
}

// printResult prints every metric of a run by name with unit, sample
// count, median, quartiles and the highest supported percentile.
func printResult(w io.Writer, res *result) {
	traced := 0
	if res.Trace {
		traced = 1
	}
	fmt.Fprintf(w, "workload %s trace=%d passes=%d", res.Workload, traced, res.Passes)
	sizes := make([]string, 0, len(res.Sizes))
	for k := range res.Sizes {
		sizes = append(sizes, k)
	}
	sort.Strings(sizes)
	for _, k := range sizes {
		fmt.Fprintf(w, " %s=%d", k, res.Sizes[k])
	}
	fmt.Fprintf(w, " attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, why := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", why)
	}
	catalogue := endToEnd
	if res.Trace {
		catalogue = perLayer
	}
	for _, d := range catalogue {
		s := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-40s %-11s n=%-4d median=%-14.6g q1=%-14.6g q3=%-14.6g", d.Name, s.Unit, s.N, s.Median, s.Q1, s.Q3)
		if s.HiPct > 0 {
			fmt.Fprintf(w, " p%g=%.6g", s.HiPct, s.Hi)
		}
		fmt.Fprintln(w)
	}
}

// printContractLine prints the one JSON object the benchmark driver
// reads from the last line of standard output.
func printContractLine(stdout, stderr io.Writer, res *result) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, s := range res.Metrics {
		line.Metrics[name] = value{s.Median, s.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	return 0
}

func writeJSON(path string, v any) error {
	if err := ensureOutDir(filepath.Dir(path)); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
