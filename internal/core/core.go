// Package core implements the paper's primary contribution — the
// Asynchronous Successive Halving Algorithm (ASHA, Algorithm 2) — along
// with every tuning method it is evaluated against: synchronous SHA
// (Algorithm 1), Hyperband (synchronous and asynchronous), random search,
// PBT, BOHB, a Vizier-like GP optimizer and a Fabolas-like multi-fidelity
// GP optimizer.
//
// All methods implement the Scheduler interface, a pull-based contract
// driven by an executor (the discrete-event cluster simulator in
// internal/cluster, or the goroutine worker pool in internal/exec):
// whenever a worker is free the executor calls Next; whenever a job
// finishes it calls Report. This mirrors the paper's framing, where
// run_then_return_val_loss is asynchronous and get_job decides what each
// free worker does.
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/searchspace"
)

// Job is a unit of work: train the given trial to TargetResource.
type Job struct {
	// TrialID identifies the configuration's stateful training run.
	// IDs are allocated by schedulers and are unique within a run.
	TrialID int
	// Config is the hyperparameter assignment to train.
	Config searchspace.Config
	// Rung is the rung index this job completes (schedulers that have
	// no rung structure use 0).
	Rung int
	// TargetResource is the cumulative resource the trial should reach.
	TargetResource float64
	// InheritFrom names a trial whose training state should be copied
	// into this trial before training (PBT's exploit step); -1 means
	// train from the trial's own current state.
	InheritFrom int
}

// Result reports a finished (or dropped) job back to the scheduler.
type Result struct {
	TrialID int
	Rung    int
	Config  searchspace.Config
	// Loss is the observed validation loss at Resource.
	Loss float64
	// TrueLoss is the noiseless loss, recorded for test-metric
	// reporting; schedulers must not use it for decisions.
	TrueLoss float64
	// Resource is the cumulative resource the trial reached.
	Resource float64
	// Failed marks a dropped job (Appendix A.1); no training progress
	// was retained and Loss is meaningless.
	Failed bool
	// Time is the completion time on the executor's clock.
	Time float64
}

// Best identifies a scheduler's current incumbent configuration.
type Best struct {
	TrialID  int
	Config   searchspace.Config
	Loss     float64 // observed validation loss used for selection
	TrueLoss float64 // noiseless loss for reporting
	Resource float64 // resource at which Loss was observed
}

// Scheduler is the common contract for all tuning methods.
type Scheduler interface {
	// Next returns the next job for a free worker. ok=false means no
	// work can be scheduled until another job completes (the worker
	// idles) — synchronous methods return false at rung barriers.
	Next() (job Job, ok bool)
	// Report delivers a completed or failed job.
	Report(res Result)
	// Best returns the current incumbent under the method's own
	// accounting rule (e.g. ASHA uses intermediate losses; Hyperband
	// "by bracket" only updates when a bracket completes).
	Best() (Best, bool)
	// Done reports whether the method has no further useful work.
	// Open-ended methods always return false and are stopped by the
	// executor's time or job budget.
	Done() bool
}

// RungSpec describes one rung of a successive-halving bracket: how many
// configurations it holds and the cumulative resource each is trained to.
type RungSpec struct {
	Index    int
	N        int
	Resource float64
}

// MaxRung returns s_max = floor(log_eta(R/r)), the highest rung index of
// bracket s=0.
func MaxRung(r, R float64, eta int) int {
	if r <= 0 || R < r || eta < 2 {
		panic(fmt.Sprintf("core: invalid bracket geometry r=%v R=%v eta=%d", r, R, eta))
	}
	// Use repeated multiplication rather than floating log to avoid
	// boundary errors when R/r is an exact power of eta.
	k := 0
	res := r
	for res*float64(eta) <= R*(1+1e-12) {
		res *= float64(eta)
		k++
	}
	return k
}

// BracketLayout reproduces the promotion scheme of Algorithm 1 (and the
// paper's Figure 1 table): for a bracket with early-stopping rate s and n
// starting configurations, rung i holds n_i = floor(n * eta^-i)
// configurations trained to r_i = r * eta^(i+s).
func BracketLayout(n int, r, R float64, eta, s int) []RungSpec {
	smax := MaxRung(r, R, eta)
	if s > smax {
		s = smax
	}
	var rungs []RungSpec
	for i := 0; i <= smax-s; i++ {
		ni := int(float64(n) / math.Pow(float64(eta), float64(i)))
		if ni < 1 {
			break
		}
		rungs = append(rungs, RungSpec{
			Index:    i,
			N:        ni,
			Resource: r * math.Pow(float64(eta), float64(i+s)),
		})
	}
	return rungs
}

// TotalBudget returns the summed resource consumed by a full bracket
// (the "total budget" column of Figure 1).
func TotalBudget(layout []RungSpec) float64 {
	total := 0.0
	for _, rg := range layout {
		total += float64(rg.N) * rg.Resource
	}
	return total
}

// HyperbandBracketSize returns n_s, the number of configurations
// Hyperband allocates to the bracket with early-stopping rate s, chosen
// so every bracket consumes approximately the same total budget:
//
//	n_s = ceil( (smax+1) / (smax-s+1) * eta^(smax-s) ).
//
// With eta=4, R/r=256 this yields the 256, 80, 27, 10, 5 progression
// used in Appendix A.3.
func HyperbandBracketSize(r, R float64, eta, s int) int {
	smax := MaxRung(r, R, eta)
	if s > smax {
		s = smax
	}
	return int(math.Ceil(float64(smax+1) / float64(smax-s+1) * math.Pow(float64(eta), float64(smax-s))))
}

// entry is one recorded (trial, loss) observation in a rung.
type entry struct {
	trialID int
	loss    float64
}

// topK returns the trial IDs of the k first entries under entryLess.
func topK(entries []entry, k int) []int {
	if k <= 0 {
		return nil
	}
	sorted := make([]entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool { return entryLess(sorted[i], sorted[j]) })
	if k > len(sorted) {
		k = len(sorted)
	}
	ids := make([]int, k)
	for i := 0; i < k; i++ {
		ids[i] = sorted[i].trialID
	}
	return ids
}

// incumbent tracks the best observation seen so far.
type incumbent struct {
	best Best
	set  bool
}

func (in *incumbent) observe(res Result) {
	if res.Failed || math.IsNaN(res.Loss) {
		return
	}
	if !in.set || res.Loss < in.best.Loss {
		in.set = true
		in.best = Best{
			TrialID:  res.TrialID,
			Config:   res.Config,
			Loss:     res.Loss,
			TrueLoss: res.TrueLoss,
			Resource: res.Resource,
		}
	}
}

func (in *incumbent) get() (Best, bool) { return in.best, in.set }

// retryQueue holds failed jobs until they are issued again, oldest first.
// It is a head-indexed queue: popping advances head instead of
// re-slicing, which would pin the backing array's consumed prefix (each
// dead Job holding its Config alive) for the life of the run.
type retryQueue struct {
	jobs []Job
	head int
}

func (q *retryQueue) push(job Job) { q.jobs = append(q.jobs, job) }

// pop removes the oldest queued job, compacting the queue once it
// empties so the backing array (and the Jobs' configs) can be collected.
func (q *retryQueue) pop() (Job, bool) {
	if q.head >= len(q.jobs) {
		return Job{}, false
	}
	job := q.jobs[q.head]
	q.jobs[q.head] = Job{} // release the config reference
	q.head++
	if q.head == len(q.jobs) {
		q.jobs = q.jobs[:0]
		q.head = 0
	}
	return job, true
}

// queued returns the jobs still waiting, oldest first.
func (q *retryQueue) queued() []Job { return q.jobs[q.head:] }
