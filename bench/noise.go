package main

import (
	"fmt"
	"io"
)

// noiseReport runs a workload `runs` times in this process, each on its
// own seed, and prints for every end-to-end metric the min, median and
// max over the runs of its raw (wall-clock) and of its normalised
// (reference-second) value, as a markdown table. (max−min)/median is the
// spread; normalising is worth its cost where it narrows the spread.
func noiseReport(stdout io.Writer, w workload, seed uint64, seconds float64, smoke bool, runs int) error {
	raw := map[string][]float64{}
	norm := map[string][]float64{}
	var order []string
	var passes []float64
	for r := 0; r < runs; r++ {
		st, err := runWorkload(w, w.prepare, seed+uint64(r), seconds, smoke, setupReps)
		if err != nil {
			return err
		}
		if t := st.totals(); t.failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", w.name, t.failed, t.attempted)
		}
		order = order[:0]
		for _, m := range endToEnd(st) {
			order = append(order, m.name)
			norm[m.name] = append(norm[m.name], m.value)
			switch m.name {
			case "setup_s":
				raw[m.name] = append(raw[m.name], median(st.setupWall))
			case "jobs_per_ref_s":
				raw[m.name] = append(raw[m.name], st.jobsPerSecond(true))
			default: // counts have no clock in them
				raw[m.name] = append(raw[m.name], m.value)
			}
		}
		passes = append(passes, 1e3*median(st.passes))
	}
	fmt.Fprintf(stdout, "### %s (%d runs of %gs, seeds %d–%d)\n\n", w.name, runs, seconds, seed, seed+uint64(runs)-1)
	fmt.Fprintln(stdout, "| metric | raw min | raw median | raw max | raw spread | norm. min | norm. median | norm. max | norm. spread |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|")
	spread := func(v []float64) string {
		return fmt.Sprintf("%.2f%%", 100*(quantile(v, 1)-quantile(v, 0))/median(v))
	}
	for _, name := range order {
		r, n := raw[name], norm[name]
		fmt.Fprintf(stdout, "| `%s` | %.6g | %.6g | %.6g | %s | %.6g | %.6g | %.6g | %s |\n", name,
			quantile(r, 0), median(r), quantile(r, 1), spread(r),
			quantile(n, 0), median(n), quantile(n, 1), spread(n))
	}
	fmt.Fprintf(stdout, "| `cal.pass_ms_median` | %.4g | %.4g | %.4g | %s | | | | |\n\n",
		quantile(passes, 0), median(passes), quantile(passes, 1), spread(passes))
	return nil
}
