package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// budgetLine is one row of the per-job budget table.
type budgetLine struct {
	layer string
	us    float64
}

// tracedRun measures a workload with its traced twin, runs the isolated
// layer replays the workload calls for, writes the last chunk's spans to
// out/trace-<workload>.json, prints the budget table and returns every
// per-layer metric.
func tracedRun(stdout io.Writer, w workload, seed uint64, seconds float64, smoke bool) (*runStats, []metric, error) {
	c := &collector{rec: newRecorder()}
	w.warm = 1 // a traced chunk is two or three plain ones, and set-up is not reported
	st, err := runWorkload(w, c.tracedPrepare(w), seed, seconds, smoke, 1)
	if err != nil {
		return nil, nil, err
	}
	v := map[string]float64{}
	measured := c.chunks[len(c.chunks)-len(st.chunks):]

	// Sum the measured chunks, each converted to the workload's unit by
	// the kernel passes around it.
	var layers [spanNames]struct{ self, total, calls float64 }
	var jobs, tracedS, plainS, plainWall, plainCPU, plainJobs, records, bytes, expired float64
	var tracedPerJob, plainPerJob, dispatch, reportLag []float64
	for i, tc := range measured {
		s := st.chunks[i]
		factor := s.seconds(w.wallClock) / s.wall.Seconds()
		for n := range layers {
			layers[n].self += factor * tc.layers[n].self.Seconds()
			layers[n].total += factor * tc.layers[n].total.Seconds()
			layers[n].calls += float64(tc.layers[n].calls)
		}
		jobs += float64(tc.jobs)
		tracedS += s.seconds(w.wallClock)
		plainS += factor * tc.plain.wall.Seconds()
		plainWall += tc.plain.wall.Seconds()
		plainCPU += tc.plain.cpu.Seconds()
		plainJobs += float64(tc.plain.jobs)
		tracedPerJob = append(tracedPerJob, s.seconds(w.wallClock)/float64(s.jobs))
		plainPerJob = append(plainPerJob, factor*tc.plain.wall.Seconds()/float64(tc.plain.jobs))
		records += tc.counters["state.records"]
		bytes += tc.counters["state.bytes"]
		expired += tc.counters["remote.expired_leases"]
		dispatch = append(dispatch, tc.dispatch...)
		reportLag = append(reportLag, tc.reportLag...)
	}
	us := func(n spanName) float64 { return 1e6 * layers[n].self / jobs }
	chunks := float64(len(measured))

	v["core.next_us"], v["core.report_us"] = us(spanNext), us(spanReport)
	v["core.next_calls"] = layers[spanNext].calls / chunks
	if layers[spanNext].calls > 0 {
		v["core.next_hit_ratio"] = jobs / layers[spanNext].calls
	}
	v["backend.drive_self_us"] = us(spanDrive)
	v["backend.await_batches"] = layers[spanAwait].calls / chunks
	if layers[spanAwait].calls > 0 {
		v["backend.await_batch_mean"] = jobs / layers[spanAwait].calls
	}
	v["exec.objective_us"] = us(spanObjective)
	v["state.records"], v["state.bytes_per_job"] = records/chunks, bytes/jobs
	if layers[spanWrite].calls > 0 {
		v["state.write_us_per_record"] = 1e6 * layers[spanWrite].self / layers[spanWrite].calls
	}
	v["remote.expired_leases"] = expired
	perJob := 1e6 * plainS / plainJobs // the untraced public-API run's time per job
	tracedUs := 1e6 * tracedS / jobs

	var budget []budgetLine
	switch w.name {
	case "sim-paper":
		v["cluster.launch_us"], v["cluster.await_us"] = us(spanLaunch), us(spanAwait)
		v["cluster.events"] = layers[spanLaunch].calls / chunks
		budget = []budgetLine{
			{"core (Next+Report)", us(spanNext) + us(spanReport)},
			{"cluster (Launch+Await)", us(spanLaunch) + us(spanAwait)},
			{"backend.Drive self", us(spanDrive)},
		}
	case "resume-replay":
		for name, value := range c.setup {
			v[name] = value
		}
		v["state.recover_us_per_record"] = 1e6 * layers[spanRecover].self / records
		v["backend.replay_us_per_record"] = 1e6 * layers[spanReplay].self / records
		v["state.snapshots"] = replayJournals // each Resume appends a final snapshot and nothing else
		budget = []budgetLine{
			{"state.RecoverFile", us(spanRecover)},
			{"backend.Replay self", us(spanReplay)},
			{"core (Next+Report)", us(spanNext) + us(spanReport)},
			{"backend.Drive (final snapshot)", us(spanDrive) + us(spanLaunch) + us(spanAwait)},
		}
	case "ashad-fleet":
		v["remote.launch_us"], v["remote.await_us"] = us(spanLaunch), us(spanAwait)
		replays, err := replayStream(c.stream, c.newSched)
		if err != nil {
			return nil, nil, err
		}
		for name, value := range replays {
			v[name] = value
		}
		size := int(plainJobs / chunks)
		if v["remote.submit_rtt_us"], err = submitRTT(size); err != nil {
			return nil, nil, err
		}
		for _, exps := range []int{1, 64, 1024} {
			name := fmt.Sprintf("manager.dispatch_us_%dexp", exps)
			if v[name], err = managerDispatch(exps, size); err != nil {
				return nil, nil, err
			}
		}
		v["state.snapshots"] = (records-2*jobs)/chunks - 1 // less the meta record
		// The Manager has no interface to time, so its budget is built
		// from the isolated costs. They overlap (README.md, "Reading the
		// budget table") and the coverage says by how much.
		budget = []budgetLine{
			{"manager dispatch (64 exps, in-process pool)", v["manager.dispatch_us_64exp"]},
			{"state.Journal.Append × records/job", v["state.append_us_per_record"] * records / jobs},
			{"remote Submit→outcome (server, wire, agent)", v["remote.submit_rtt_us"]},
		}
	case "tune-paced":
		v["remote.dispatch_p50_ms"], v["remote.dispatch_p99_ms"] = 1e3*quantile(dispatch, 0.5), 1e3*quantile(dispatch, 0.99)
		v["remote.report_lag_p50_ms"], v["remote.report_lag_p99_ms"] = 1e3*quantile(reportLag, 0.5), 1e3*quantile(reportLag, 0.99)
		slots := float64(pacedWorkers * pacedSlots)
		v["worker_util"] = layers[spanObjective].total / (slots * tracedS)
		// A job occupies one of 16 slots: its budget is slot time.
		perJob *= slots
		tracedUs *= slots
		budget = []budgetLine{
			{"objective", us(spanObjective)},
			{"dispatch (callback → next start), mean", 1e6 * mean(dispatch)},
			{"report lag (return → callback), mean", 1e6 * mean(reportLag)},
		}
	}

	var covered float64
	for _, b := range budget {
		covered += b.us
	}
	whole := tracedUs
	if w.name == "ashad-fleet" {
		whole = perJob // the twin is another engine: compare with the Manager itself
	}
	v["budget.coverage"] = covered / whole
	v["trace.overhead_frac"] = median(tracedPerJob)/median(plainPerJob) - 1
	v["proc.raw_jobs_per_s"] = plainJobs / plainWall
	v["proc.cpu_us_per_job"] = 1e6 * plainCPU / plainJobs
	v["proc.peak_rss_mb"], v["proc.gc_pause_ms"] = st.peakRSSMB, 1e3*st.gcPause.Seconds()
	v["cal.pass_ms_median"] = 1e3 * median(st.passes)
	v["cal.pass_ms_iqr"] = 1e3 * (quantile(st.passes, 0.75) - quantile(st.passes, 0.25))

	fmt.Fprintf(stdout, "budget %s: %.3f us per job measured (untraced %.3f us)\n", w.name, whole, perJob)
	for _, b := range budget {
		fmt.Fprintf(stdout, "  %-46s %10.3f us  %5.1f%%\n", b.layer, b.us, 100*b.us/whole)
	}
	fmt.Fprintf(stdout, "  %-46s %10.3f us  %5.1f%%\n", "sum (budget.coverage)", covered, 100*covered/whole)
	if cov := v["budget.coverage"]; cov < 0.85 || cov > 1.15 {
		fmt.Fprintf(stdout, "  warning: the layers cover %.2f of the measured time, outside 0.85–1.15\n", cov)
	}
	if err := writeTrace(filepath.Join("out", "trace-"+w.name+".json"), c.spans); err != nil {
		fmt.Fprintf(os.Stderr, "bench: trace file: %v\n", err)
	}

	metrics := make([]metric, len(perLayer))
	for i, m := range perLayer {
		metrics[i] = metric{m.name, v[m.name], m.unit}
	}
	return st, metrics, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
