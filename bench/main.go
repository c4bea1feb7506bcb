// Command bench is the repository's benchmark: four fixed-work workloads
// driven through the public asha API, end-to-end metrics normalised
// against an inline calibration kernel, and a traced run that prints
// the per-job budget of every layer. README.md explains each metric and
// workload; BENCHMARK.json at the repository root declares them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// metric is one printed value.
type metric struct {
	name  string
	value float64
	unit  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: all)")
	seed := fs.Uint64("seed", 1, "base seed; measured chunk i uses seed+i")
	seconds := fs.Float64("seconds", 20, "how long to measure, after set-up")
	trace := fs.Bool("trace", false, "traced run: print the per-layer metrics and the budget table")
	noise := fs.Bool("noise", false, "run the workload -runs times and print the spread of every metric")
	runs := fs.Int("runs", 5, "number of runs for -noise")
	smoke := fs.Bool("smoke", false, "tiny sizes, for tests")
	if err := fs.Parse(boolTraceArg(args)); err != nil {
		return 2
	}
	var selected []workload
	if *workloadName == "" {
		selected = workloads
	} else if w, ok := findWorkload(*workloadName); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *smoke {
		defer func() { kernelScale = 1 }()
		kernelScale = 10
	}
	code := 0
	for _, w := range selected {
		var err error
		if *noise {
			err = noiseReport(stdout, w, *seed, *seconds, *smoke, *runs)
		} else {
			err = report(stdout, w, *seed, *seconds, *smoke, *trace)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// boolTraceArg lets -trace be given both as a switch and, as the
// benchmark driver does, with a separate 0 or 1.
func boolTraceArg(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// report runs one workload once, prints every metric by name with its
// unit, and ends with the one-line JSON result. It fails when any
// operation or check failed.
func report(stdout io.Writer, w workload, seed uint64, seconds float64, smoke, trace bool) error {
	var metrics []metric
	var st *runStats
	var err error
	if trace {
		st, metrics, err = tracedRun(stdout, w, seed, seconds, smoke)
	} else {
		if st, err = runWorkload(w, w.prepare, seed, seconds, smoke, setupReps); err == nil {
			metrics = endToEnd(st)
		}
	}
	if err != nil {
		return err
	}
	t := st.totals()
	fmt.Fprintf(stdout, "workload %s seed %d: %d measured chunks, ops_attempted %d, ops_failed %d\n",
		w.name, seed, len(st.chunks), t.attempted, t.failed)
	values := make(map[string]interface{}, len(metrics))
	for _, m := range metrics {
		fmt.Fprintf(stdout, "  %-32s %16.6g %s\n", m.name, m.value, m.unit)
		values[m.name] = map[string]interface{}{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]interface{}{
		"correct": t.failed == 0, "attempted": t.attempted, "failed": t.failed, "metrics": values,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if t.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, t.failed, t.attempted)
	}
	return nil
}

// endToEnd computes the end-to-end metrics of BENCHMARK.json from an
// untraced run.
func endToEnd(st *runStats) []metric {
	t := st.totals()
	jobs := float64(t.jobs)
	return []metric{
		{"setup_s", median(st.setup), "s"},
		{"jobs_per_ref_s", st.jobsPerSecond(false), "1/s"},
		{"allocs_per_job", float64(t.mallocs) / jobs, "count"},
		{"alloc_bytes_per_job", float64(t.bytes) / jobs, "B"},
	}
}
