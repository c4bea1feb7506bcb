// Package metrics records tuning runs — the incumbent's trajectory over
// time plus run-level counters — and aggregates repeated trials into the
// mean/min/max series the paper's figures plot.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/stats"
)

// Point is one incumbent update: at Time the searcher's incumbent had
// the given observed validation loss and noiseless test loss.
type Point struct {
	Time     float64
	ValLoss  float64
	TestLoss float64
}

// Run is the record of a single tuning run.
type Run struct {
	Series        []Point
	CompletedJobs int
	FailedJobs    int
	IssuedJobs    int
	// ConfigsToR counts configurations trained to the maximum resource.
	ConfigsToR int
	// FirstRTime is the time the first configuration reached the
	// maximum resource (+Inf if none did).
	FirstRTime float64
	// TotalResource is the summed training resource consumed.
	TotalResource float64
	// Trials is the number of distinct configurations started.
	Trials int
	// EndTime is the clock value when the run stopped.
	EndTime float64
}

// Record appends an incumbent point, dropping consecutive duplicates.
func (r *Run) Record(t, valLoss, testLoss float64) {
	if n := len(r.Series); n > 0 {
		last := r.Series[n-1]
		if last.ValLoss == valLoss && last.TestLoss == testLoss {
			return
		}
	}
	r.Series = append(r.Series, Point{Time: t, ValLoss: valLoss, TestLoss: testLoss})
}

// TestLossAt returns the incumbent test loss in effect at time t (the
// last point at or before t), or NaN before the first point.
func (r *Run) TestLossAt(t float64) float64 {
	idx := sort.Search(len(r.Series), func(i int) bool { return r.Series[i].Time > t })
	if idx == 0 {
		return math.NaN()
	}
	return r.Series[idx-1].TestLoss
}

// FinalTestLoss returns the last incumbent test loss, or NaN for an
// empty run.
func (r *Run) FinalTestLoss() float64 {
	if len(r.Series) == 0 {
		return math.NaN()
	}
	return r.Series[len(r.Series)-1].TestLoss
}

// AggSeries is the across-trials aggregate of incumbent test loss on a
// shared time grid: the mean plus min/max and quartile envelopes the
// paper's figures draw.
type AggSeries struct {
	Times []float64
	Mean  []float64
	Min   []float64
	Max   []float64
	Q25   []float64
	Q75   []float64
}

// Grid returns n+1 evenly spaced times spanning [0, maxTime].
func Grid(maxTime float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		out[i] = maxTime * float64(i) / float64(n)
	}
	return out
}

// Aggregate evaluates each run's incumbent at each grid time and returns
// summary envelopes. Grid points where no run has an incumbent yet are
// NaN.
func Aggregate(runs []*Run, grid []float64) *AggSeries {
	agg := &AggSeries{
		Times: append([]float64(nil), grid...),
		Mean:  make([]float64, len(grid)),
		Min:   make([]float64, len(grid)),
		Max:   make([]float64, len(grid)),
		Q25:   make([]float64, len(grid)),
		Q75:   make([]float64, len(grid)),
	}
	vals := make([]float64, 0, len(runs))
	for i, t := range grid {
		vals = vals[:0]
		for _, r := range runs {
			if v := r.TestLossAt(t); !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			nan := math.NaN()
			agg.Mean[i], agg.Min[i], agg.Max[i], agg.Q25[i], agg.Q75[i] = nan, nan, nan, nan, nan
			continue
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		agg.Mean[i] = stats.Mean(vals)
		agg.Min[i] = sorted[0]
		agg.Max[i] = sorted[len(sorted)-1]
		agg.Q25[i] = stats.QuantileSorted(sorted, 0.25)
		agg.Q75[i] = stats.QuantileSorted(sorted, 0.75)
	}
	return agg
}

// WriteTable renders one or more named aggregate series as a text table
// with a shared time grid — the textual stand-in for the paper's plots.
// All series must share the same grid.
func WriteTable(w io.Writer, timeLabel string, names []string, series map[string]*AggSeries) error {
	if len(names) == 0 {
		return nil
	}
	first := series[names[0]]
	if _, err := fmt.Fprintf(w, "%-12s", timeLabel); err != nil {
		return err
	}
	for _, n := range names {
		if _, err := fmt.Fprintf(w, " %16s", n); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i, t := range first.Times {
		if _, err := fmt.Fprintf(w, "%-12.1f", t); err != nil {
			return err
		}
		for _, n := range names {
			s := series[n]
			v := math.NaN()
			if s != nil && i < len(s.Mean) {
				v = s.Mean[i]
			}
			if _, err := fmt.Fprintf(w, " %16.4f", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
