// Command ashasim is the what-if capacity planner: it reads a finished
// (or interrupted) experiment's state journal, rebuilds the workload's
// empirical cost/loss distributions as a calibrated surrogate
// benchmark, and replays the same job budget on the discrete-event
// simulator against hypothetical fleet sizes, straggler spreads, and
// drop rates. The output answers "how many workers does this workload
// deserve?" with a wall-clock-vs-workers table, a recommendation, and a
// text figure.
//
// Usage:
//
//	ashasim -journal dir/tuner.journal [-workers 25,250,2500]
//	        [-straggler 0] [-drop 0] [-eta 0] [-time-r 0] [-seed 1]
//
// -workers, -straggler, and -drop accept comma-separated lists; the
// replay grid is the cross product of the straggler and drop lists,
// with one table section (and one figure series) per combination.
//
// The journal records configurations, losses, and resources, but not
// per-job wall-clock durations (those belong to whichever backend ran
// it), so replayed wall-clock is measured in training-time units: by
// default one unit is the time a full R-resource training run takes
// (-time-r overrides the R-run cost). Relative comparisons across fleet
// sizes — the saturation knee the tool exists to find — do not depend
// on that unit.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/searchspace"
	"repro/internal/state"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// model is the workload rebuilt from a journal: the inferred search
// space, rung ladder, job budget, and fitted loss-curve calibration.
type model struct {
	Experiment string
	Algo       string
	Space      *searchspace.Space
	Jobs       int
	Rungs      []float64 // distinct job target resources, ascending
	Eta        int
	MinR, MaxR float64
	Cal        workload.Calibration
	Kappa      float64
	TimeR      float64 // cost of one full-R training run, in time units
}

// analyze fits a workload model to a recovered journal.
func analyze(rec *state.Recovered) (*model, error) {
	m := &model{Experiment: rec.Meta.Experiment, Algo: rec.Meta.Algo}

	// Collect the issue/report streams.
	type trialObs struct {
		resource float64
		loss     float64
	}
	var issues []*state.Issue
	lossByRung := map[int][]float64{}
	finals := map[int]trialObs{} // trial -> deepest successful observation
	var allLosses []float64
	targets := map[float64]bool{}
	maxResource := 0.0
	for i := range rec.Records {
		if is := rec.Records[i].Issue; is != nil {
			issues = append(issues, is)
			targets[is.Target] = true
		}
		if rp := rec.Records[i].Report; rp != nil && !rp.Failed {
			loss := rp.Loss
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				continue
			}
			lossByRung[rp.Rung] = append(lossByRung[rp.Rung], loss)
			allLosses = append(allLosses, loss)
			if rp.Resource > maxResource {
				maxResource = rp.Resource
			}
			if prev, ok := finals[rp.Trial]; !ok || rp.Resource >= prev.resource {
				finals[rp.Trial] = trialObs{resource: rp.Resource, loss: loss}
			}
		}
	}
	if len(issues) == 0 {
		return nil, fmt.Errorf("journal has no issued jobs to replay")
	}
	if len(allLosses) == 0 {
		return nil, fmt.Errorf("journal has no successful loss reports to fit")
	}
	m.Jobs = len(issues)

	// Rung ladder: the distinct target resources, ascending.
	for t := range targets {
		if t > 0 {
			m.Rungs = append(m.Rungs, t)
		}
	}
	sort.Float64s(m.Rungs)
	if len(m.Rungs) == 0 {
		return nil, fmt.Errorf("journal has no positive job targets")
	}
	m.MinR = m.Rungs[0]
	m.MaxR = m.Rungs[len(m.Rungs)-1]
	if maxResource > m.MaxR {
		m.MaxR = maxResource
	}
	m.Eta = 4
	if len(m.Rungs) >= 2 {
		if e := int(math.Round(m.Rungs[1] / m.Rungs[0])); e >= 2 {
			m.Eta = e
		}
	}

	// Search space: parameter bounds from the observed configurations,
	// log-scaled when the observed range spans decades.
	names := rec.Meta.Params
	if len(names) == 0 {
		seen := map[string]bool{}
		for _, is := range issues {
			for k := range is.Config {
				if !seen[k] {
					seen[k] = true
					names = append(names, k)
				}
			}
		}
		sort.Strings(names)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("journal records no hyperparameters")
	}
	params := make([]searchspace.Param, 0, len(names))
	for _, name := range names {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, is := range issues {
			v, ok := is.Config[name]
			if !ok {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if math.IsInf(lo, 1) {
			lo, hi = 0, 1 // parameter never observed
		}
		if lo == hi {
			// A single observed value gives no range; widen it so the
			// replay still explores around it.
			if lo == 0 {
				lo, hi = -0.5, 0.5
			} else {
				lo, hi = lo-math.Abs(lo)/2, hi+math.Abs(hi)/2
			}
		}
		typ := searchspace.Uniform
		if lo > 0 && hi/lo >= 100 {
			typ = searchspace.LogUniform
		}
		params = append(params, searchspace.Param{Name: name, Type: typ, Lo: lo, Hi: hi})
	}
	m.Space = searchspace.New(params...)

	// Loss calibration from the empirical distributions. The surrogate
	// maps a configuration's quality percentile u to an asymptote
	// best + span*(1-u)^(1/hardness); fit hardness so the surrogate's
	// median final loss matches the journal's.
	sort.Float64s(allLosses)
	init := allLosses[len(allLosses)-1]
	best := allLosses[0]
	var finalLosses []float64
	for _, obs := range finals {
		finalLosses = append(finalLosses, obs.loss)
	}
	sort.Float64s(finalLosses)
	worst := quantile(finalLosses, 0.9)
	if worst <= best {
		worst = best + (init-best)*0.5
	}
	if init <= worst {
		init = worst + (worst-best)*0.1 + 1e-6
	}
	span := worst - best
	hardness := 2.0
	if med := quantile(finalLosses, 0.5); med > best && med < worst {
		t := (med - best) / span
		if h := math.Log(0.5) / math.Log(t); h > 0.2 && h < 20 {
			hardness = h
		}
	}

	// Convergence rate: how far the bottom rung's median loss has moved
	// from the initial loss toward the median asymptote determines
	// kappa, the number of exponential time constants over a full R.
	kappa := 7.0
	rung0 := lossByRung[0]
	if len(rung0) > 0 && len(m.Rungs) > 0 {
		sort.Float64s(rung0)
		l0 := quantile(rung0, 0.5)
		asym := quantile(finalLosses, 0.5)
		if init > asym && l0 > asym {
			frac := (l0 - asym) / (init - asym)
			if frac > 1e-6 && frac < 1 {
				k := -math.Log(frac) * m.MaxR / m.MinR
				kappa = math.Max(0.5, math.Min(50, k))
			}
		}
	}
	m.Kappa = kappa

	m.Cal = workload.Calibration{
		InitialLoss: init,
		BestLoss:    best,
		WorstLoss:   worst,
		Hardness:    hardness,
		RateLo:      kappa * 0.7,
		RateHi:      kappa * 1.3,
		RateCouple:  0.5,
		NoiseSD:     span * 0.02,
	}
	m.TimeR = 1 // wall-clock unit: one full-R training run; -time-r overrides
	return m, nil
}

// quantile returns the q-quantile of sorted (ascending) values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// benchmark builds the surrogate benchmark for the fitted model.
func (m *model) benchmark(seed uint64) *workload.Benchmark {
	timeR := m.TimeR
	if timeR <= 0 {
		timeR = 1
	}
	return workload.NewBenchmark("whatif:"+m.Experiment, m.Space, m.MaxR, timeR, seed, m.Cal)
}

// scenario is one replay configuration.
type scenario struct {
	Workers     int
	StragglerSD float64
	DropProb    float64
}

// replay runs the fitted workload's job budget on a hypothetical fleet.
func (m *model) replay(sc scenario, seed uint64) *metrics.Run {
	bench := m.benchmark(seed).WithNoiseSeed(seed)
	sched := core.NewASHA(core.ASHAConfig{
		Space:       bench.Space(),
		RNG:         xrand.New(seed),
		Eta:         m.Eta,
		MinResource: m.MinR,
		MaxResource: m.MaxR,
	})
	return cluster.Run(sched, bench, cluster.Options{
		Workers:     sc.Workers,
		StragglerSD: sc.StragglerSD,
		DropProb:    sc.DropProb,
		MaxJobs:     m.Jobs,
		Seed:        seed,
	})
}

// row is one replayed fleet size's outcome.
type row struct {
	scenario
	WallClock  float64
	BestLoss   float64
	ConfigsAtR int
	Failed     int
}

// report renders the what-if table, recommendation, and figure.
func report(m *model, rows []row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "what-if replay: experiment %q", m.Experiment)
	if m.Algo != "" {
		fmt.Fprintf(&b, " (%s)", m.Algo)
	}
	fmt.Fprintf(&b, "\nworkload: %d jobs over %d rungs, r=%.4g R=%.4g eta=%d\n",
		m.Jobs, len(m.Rungs), m.MinR, m.MaxR, m.Eta)
	fmt.Fprintf(&b, "fitted surrogate: initial %.4g, best %.4g, worst %.4g, hardness %.2f, kappa %.2f\n",
		m.Cal.InitialLoss, m.Cal.BestLoss, m.Cal.WorstLoss, m.Cal.Hardness, m.Kappa)
	fmt.Fprintf(&b, "wall-clock unit: one full-R training run (time-r %.4g)\n", m.TimeR)

	// Group rows into sections by (straggler, drop).
	type key struct{ sd, dp float64 }
	sections := map[key][]row{}
	var order []key
	for _, r := range rows {
		k := key{r.StragglerSD, r.DropProb}
		if _, ok := sections[k]; !ok {
			order = append(order, k)
		}
		sections[k] = append(sections[k], r)
	}
	var series []plot.Series
	for _, k := range order {
		sec := sections[k]
		fmt.Fprintf(&b, "\nstraggler SD %.2f, drop prob %.3f:\n", k.sd, k.dp)
		fmt.Fprintf(&b, "  %8s  %12s  %8s  %10s  %10s  %9s\n",
			"workers", "wall-clock", "speedup", "efficiency", "best-loss", "configs@R")
		base := sec[0]
		rec := 0
		for _, r := range sec {
			speedup := base.WallClock / r.WallClock
			eff := speedup * float64(base.Workers) / float64(r.Workers)
			if eff >= 0.5 && r.Workers > rec {
				rec = r.Workers
			}
			fmt.Fprintf(&b, "  %8d  %12.2f  %7.2fx  %10.2f  %10.4g  %9d\n",
				r.Workers, r.WallClock, speedup, eff, r.BestLoss, r.ConfigsAtR)
		}
		if rec > 0 {
			fmt.Fprintf(&b, "  recommended fleet: %d workers (largest with parallel efficiency >= 0.5 vs %d)\n",
				rec, base.Workers)
		}
		xs := make([]float64, len(sec))
		ys := make([]float64, len(sec))
		for i, r := range sec {
			xs[i] = float64(r.Workers)
			ys[i] = r.WallClock
		}
		series = append(series, plot.Series{
			Name: fmt.Sprintf("sd=%.2f drop=%.3f", k.sd, k.dp),
			X:    xs, Y: ys,
		})
	}
	b.WriteString("\nwall-clock vs workers:\n")
	b.WriteString(plot.Render(series, plot.Options{
		Width: 64, Height: 16,
		XLabel: "workers", YLabel: "wall-clock (R-run units)", LogY: true,
	}))
	return b.String()
}

// parseFloats parses a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseInts parses a comma-separated int list.
func parseInts(s string) ([]int, error) {
	fs, err := parseFloats(s)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(fs))
	for i, f := range fs {
		out[i] = int(f)
		if out[i] < 1 {
			return nil, fmt.Errorf("fleet sizes must be >= 1, got %v", f)
		}
	}
	return out, nil
}

func main() {
	var (
		journal   = flag.String("journal", "", "state journal to replay (e.g. statedir/tuner.journal)")
		workersF  = flag.String("workers", "25,250,2500", "comma-separated hypothetical fleet sizes")
		straggler = flag.String("straggler", "0", "comma-separated straggler SDs to replay")
		drop      = flag.String("drop", "0", "comma-separated per-time-unit drop probabilities")
		eta       = flag.Int("eta", 0, "override the inferred reduction factor (0 = infer)")
		timeR     = flag.Float64("time-r", 0, "override the cost of one full-R training run in time units (0 = 1)")
		seed      = flag.Uint64("seed", 1, "replay seed")
	)
	flag.Parse()
	if *journal == "" {
		fmt.Fprintln(os.Stderr, "ashasim: -journal is required")
		flag.Usage()
		os.Exit(2)
	}
	workers, err := parseInts(*workersF)
	if err != nil || len(workers) == 0 {
		fmt.Fprintf(os.Stderr, "ashasim: -workers: %v\n", err)
		os.Exit(2)
	}
	sds, err := parseFloats(*straggler)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ashasim: -straggler: %v\n", err)
		os.Exit(2)
	}
	drops, err := parseFloats(*drop)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ashasim: -drop: %v\n", err)
		os.Exit(2)
	}
	if len(sds) == 0 {
		sds = []float64{0}
	}
	if len(drops) == 0 {
		drops = []float64{0}
	}

	data, err := os.ReadFile(*journal)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ashasim: %v\n", err)
		os.Exit(1)
	}
	rec, err := state.Recover(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ashasim: %v\n", err)
		os.Exit(1)
	}
	if rec.Truncated {
		fmt.Fprintln(os.Stderr, "ashasim: journal has a torn tail; replaying the committed prefix")
	}
	m, err := analyze(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ashasim: %v\n", err)
		os.Exit(1)
	}
	if *eta >= 2 {
		m.Eta = *eta
	}
	if *timeR > 0 {
		m.TimeR = *timeR
	}

	var rows []row
	for _, sd := range sds {
		for _, dp := range drops {
			for _, w := range workers {
				sc := scenario{Workers: w, StragglerSD: sd, DropProb: dp}
				run := m.replay(sc, *seed)
				rows = append(rows, row{
					scenario:   sc,
					WallClock:  run.EndTime,
					BestLoss:   run.FinalTestLoss(),
					ConfigsAtR: run.ConfigsToR,
					Failed:     run.FailedJobs,
				})
			}
		}
	}
	fmt.Println(report(m, rows))
}
