package asha

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/state"
)

// Objective is a user training function. The Tuner calls it with the
// hyperparameter configuration, the cumulative resource already trained
// (from), the cumulative resource to reach (to), and the state returned
// by the previous call for this trial (nil on the first call). It
// returns the validation loss at `to` (lower is better) and the state
// needed to resume later. Objectives must be safe for concurrent calls
// on distinct trials. cfg and ctx are valid until the objective returns;
// copy what you keep: the worker slot that runs the job reuses both for
// its next one.
type Objective func(ctx context.Context, cfg Config, from, to float64, state interface{}) (loss float64, newState interface{}, err error)

// Option configures a Tuner.
type Option func(*Tuner)

// WithWorkers sets the number of concurrent training goroutines
// (default 1).
func WithWorkers(n int) Option { return func(t *Tuner) { t.m.workers = n } }

// WithSeed seeds the tuner's randomness (default 1).
func WithSeed(seed uint64) Option { return func(t *Tuner) { t.exp.Seed = seed } }

// WithMaxJobs stops the run after this many training jobs.
func WithMaxJobs(n int) Option { return func(t *Tuner) { t.exp.MaxJobs = n } }

// WithMaxDuration stops the run after this wall-clock duration.
func WithMaxDuration(d time.Duration) Option { return func(t *Tuner) { t.maxDuration = d } }

// WithStateDir makes the run durable: every scheduler decision is
// written ahead to an append-only journal in dir (plus periodic
// snapshots of trial checkpoints), and a killed run can be continued
// with Resume. Run always starts a fresh journal, truncating any
// previous one in dir; use Resume for crash-restart semantics.
func WithStateDir(dir string) Option { return func(t *Tuner) { t.m.stateDir = dir } }

// WithProgress installs a callback invoked after every completed job
// with the current incumbent. It runs on the executor's critical path;
// keep it fast.
func WithProgress(fn func(p Progress)) Option {
	return func(t *Tuner) {
		t.m.onProgress = nil
		if fn != nil {
			t.m.onProgress = func(p ExperimentProgress) { fn(p.Progress) }
		}
	}
}

// Progress is a live snapshot handed to the WithProgress callback.
type Progress struct {
	// Completed is the number of finished training jobs.
	Completed int
	// TrialID, Rung, Loss and Resource describe the job that just
	// finished.
	TrialID  int
	Rung     int
	Loss     float64
	Resource float64
	// BestConfig and BestLoss describe the incumbent (valid when
	// HasBest).
	HasBest    bool
	BestConfig Config
	BestLoss   float64
}

// Tuner runs a tuning algorithm over an objective on a pluggable
// execution backend (goroutine pool by default; see WithBackend).
// It is a Manager of one unnamed experiment whose executor its Backend
// builds.
type Tuner struct {
	m           Manager // workers, state dir and progress callback
	exp         Experiment
	backend     Backend
	maxDuration time.Duration
}

// New assembles a Tuner. The algorithm is one of the option structs in
// this package (ASHA, SHA, Hyperband, AsyncHyperband, RandomSearch,
// PBT, BOHB, GPOptimizer).
func New(space *Space, objective Objective, algorithm Algorithm, opts ...Option) *Tuner {
	t := &Tuner{
		m:       Manager{workers: 1},
		exp:     Experiment{Space: space, Objective: objective, Algorithm: algorithm, Seed: 1},
		backend: GoroutinePool{},
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Result is the outcome of a tuning run.
type Result struct {
	// BestConfig is the incumbent configuration and BestLoss its
	// observed validation loss at BestResource.
	BestConfig   Config
	BestLoss     float64
	BestResource float64
	// CompletedJobs counts finished training jobs; Trials counts
	// distinct configurations started; TotalResource sums training
	// resource across trials.
	CompletedJobs int
	Trials        int
	TotalResource float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// History is the incumbent loss trajectory: (seconds since start,
	// incumbent loss) after each improvement.
	History []HistoryPoint
}

// HistoryPoint is one incumbent improvement.
type HistoryPoint struct {
	Seconds float64
	Loss    float64
}

// Run executes the tuning run until the context is cancelled, a budget
// (WithMaxJobs / WithMaxDuration) is exhausted, or the algorithm
// finishes. It returns the best configuration found. With WithStateDir
// it journals the run from scratch, truncating any previous journal.
func (t *Tuner) Run(ctx context.Context) (*Result, error) { return t.run(ctx, false) }

// Resume continues a journaled run from its state directory
// (WithStateDir is required for resume to have any effect; without a
// journal on disk Resume behaves exactly like Run). The Tuner must be
// configured identically to the interrupted run — same space, algorithm,
// seed and budgets — which Resume verifies against the journal before
// replaying it: the scheduler is rebuilt to the exact state it died
// with, completed work is not re-run, in-flight jobs are relaunched, and
// trial checkpoints are restored from the journal's snapshots.
func (t *Tuner) Resume(ctx context.Context) (*Result, error) { return t.run(ctx, true) }

// run is a Manager's run of its one experiment on the executor the
// Backend builds: only the option checks, the build and the unwrapping
// of the one result are the Tuner's own.
func (t *Tuner) run(ctx context.Context, resume bool) (*Result, error) {
	if t.exp.Space == nil || t.exp.Space.Dim() == 0 {
		return nil, fmt.Errorf("asha: tuner requires a non-empty search space")
	}
	if t.exp.Algorithm == nil {
		return nil, fmt.Errorf("asha: tuner requires an algorithm")
	}
	if t.m.workers < 1 {
		return nil, fmt.Errorf("asha: tuner requires at least one worker")
	}
	if t.maxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.maxDuration)
		defer cancel()
	}
	// Refused before the build: a built backend has already started its
	// pool, its worker processes or its lease server. A Simulation's
	// virtual-time limit bounds a run by itself.
	sim, _ := t.backend.(Simulation)
	if t.exp.MaxJobs == 0 && sim.MaxSimTime == 0 && ctx.Done() == nil {
		return nil, fmt.Errorf("asha: unbounded run; set WithMaxJobs, WithMaxDuration, or a cancellable context")
	}
	e := &mgrExp{spec: t.exp}
	r := &mgrRun{m: &t.m, exps: []*mgrExp{e}}
	if err := t.m.prepareStateDir(); err != nil {
		return nil, err
	}
	var err error
	if r.root, r.base, err = t.backend.build(ctx, t); err != nil {
		return nil, err
	}
	err = r.run(ctx, resume)
	switch {
	case e.err != nil: // the experiment's own failure outranks the executor's
		return nil, e.err
	case err != nil:
		return nil, err
	case e.res == nil:
		return nil, fmt.Errorf("asha: run completed no trials (budget too small?)")
	}
	return e.res, nil
}

// newResult builds the public Result of a finished run, or nil if it
// never completed a trial.
func newResult(run *metrics.Run, sched core.Scheduler, elapsed time.Duration) *Result {
	best, ok := sched.Best()
	if !ok {
		return nil
	}
	res := &Result{
		BestConfig:    best.Config.Map(),
		BestLoss:      best.Loss,
		BestResource:  best.Resource,
		CompletedJobs: run.CompletedJobs,
		Trials:        run.Trials,
		TotalResource: run.TotalResource,
		Elapsed:       elapsed,
	}
	for _, p := range run.Series {
		res.History = append(res.History, HistoryPoint{Seconds: p.Time, Loss: p.ValLoss})
	}
	return res
}

// progressHook adapts a progress callback to the engine's per-result
// hook of the named experiment. The job count resumes where the journal
// left off; replayed completions never re-fire the callback.
func progressHook(rs *backend.ResumeState, name string, fn func(ExperimentProgress)) func(core.Result, core.Best, bool) {
	completed := 0
	if rs != nil {
		completed = rs.Run.CompletedJobs
	}
	return func(res core.Result, best core.Best, ok bool) {
		completed++
		p := Progress{
			Completed: completed,
			TrialID:   res.TrialID,
			Rung:      res.Rung,
			Loss:      res.Loss,
			Resource:  res.Resource,
			HasBest:   ok,
		}
		if ok {
			p.BestConfig = best.Config.Map()
			p.BestLoss = best.Loss
		}
		fn(ExperimentProgress{Experiment: name, Progress: p})
	}
}

// tunerJournalName is the journal file a single Tuner keeps in its state
// directory (Manager experiments use <name>.journal instead).
const tunerJournalName = "tuner.journal"

// openJournal opens one experiment's journal at path: fresh (truncating)
// for Run, or — on resume, when the file exists — verified against meta
// and replayed into sched as it is decoded, then reopened for appending
// at its recovery point. A journal refused for what it holds is left as
// it was: a torn tail is cut off only once the replay has accepted the
// records before it. A resume without an existing journal falls through
// to a fresh start, which gives CLIs resume-on-restart semantics with a
// single call. Tuner.Resume, Manager.Resume and an admin adopt all open
// journals here; opt must not carry OnResult yet, so progress callbacks
// do not re-fire for work that completed before the crash.
func openJournal(path string, meta state.Meta, resume bool, sched core.Scheduler, opt backend.Options) (*state.Journal, *backend.ResumeState, error) {
	if resume {
		if _, err := os.Stat(path); err == nil {
			s, err := state.ScanFile(path)
			if err != nil {
				return nil, nil, err
			}
			defer s.Close() // Reopen closes it; a refusal leaves it to this
			if err := checkJournalMeta(s.Meta, meta); err != nil {
				return nil, nil, err
			}
			rs, err := backend.ReplayScan(s, sched, opt)
			if err != nil {
				return nil, nil, err
			}
			journal, err := s.Reopen()
			return journal, rs, err
		}
	}
	journal, err := state.Create(path, meta)
	return journal, nil, err
}

func spaceParamNames(space *Space) []string {
	names := make([]string, 0, space.Dim())
	for _, p := range space.Params() {
		names = append(names, p.Name)
	}
	return names
}

// checkJournalMeta refuses to resume a journal written under a different
// experiment identity — the scheduler replay would diverge on the first
// record, but the identity check gives an actionable error first.
func checkJournalMeta(got, want state.Meta) error {
	if got.Experiment != want.Experiment {
		return fmt.Errorf("asha: journal belongs to experiment %q, not %q", got.Experiment, want.Experiment)
	}
	if got.Seed != want.Seed {
		return fmt.Errorf("asha: journal was written with seed %d, tuner is configured with seed %d", got.Seed, want.Seed)
	}
	if got.Algo != want.Algo {
		return fmt.Errorf("asha: journal was written by algorithm %s, tuner is configured with %s", got.Algo, want.Algo)
	}
	if len(got.Params) != len(want.Params) {
		return fmt.Errorf("asha: journal space has %d parameters, tuner space has %d", len(got.Params), len(want.Params))
	}
	for i := range got.Params {
		if got.Params[i] != want.Params[i] {
			return fmt.Errorf("asha: journal space parameter %d is %q, tuner space has %q", i, got.Params[i], want.Params[i])
		}
	}
	return nil
}
