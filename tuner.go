package asha

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/state"
	"repro/internal/xrand"
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
func WithWorkers(n int) Option { return func(t *Tuner) { t.workers = n } }

// WithSeed seeds the tuner's randomness (default 1).
func WithSeed(seed uint64) Option { return func(t *Tuner) { t.seed = seed } }

// WithMaxJobs stops the run after this many training jobs.
func WithMaxJobs(n int) Option { return func(t *Tuner) { t.maxJobs = n } }

// WithMaxDuration stops the run after this wall-clock duration.
func WithMaxDuration(d time.Duration) Option { return func(t *Tuner) { t.maxDuration = d } }

// WithStateDir makes the run durable: every scheduler decision is
// written ahead to an append-only journal in dir (plus periodic
// snapshots of trial checkpoints), and a killed run can be continued
// with Resume. Run always starts a fresh journal, truncating any
// previous one in dir; use Resume for crash-restart semantics.
func WithStateDir(dir string) Option { return func(t *Tuner) { t.stateDir = dir } }

// WithProgress installs a callback invoked after every completed job
// with the current incumbent. It runs on the executor's critical path;
// keep it fast.
func WithProgress(fn func(p Progress)) Option { return func(t *Tuner) { t.onProgress = fn } }

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
type Tuner struct {
	space       *Space
	objective   Objective
	algorithm   Algorithm
	backend     Backend
	workers     int
	seed        uint64
	maxJobs     int
	maxDuration time.Duration
	onProgress  func(Progress)
	stateDir    string
}

// New assembles a Tuner. The algorithm is one of the option structs in
// this package (ASHA, SHA, Hyperband, AsyncHyperband, RandomSearch,
// PBT, BOHB, GPOptimizer).
func New(space *Space, objective Objective, algorithm Algorithm, opts ...Option) *Tuner {
	t := &Tuner{
		space:     space,
		objective: objective,
		algorithm: algorithm,
		backend:   GoroutinePool{},
		workers:   1,
		seed:      1,
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

func (t *Tuner) run(ctx context.Context, resume bool) (result *Result, err error) {
	if t.space == nil || t.space.Dim() == 0 {
		return nil, fmt.Errorf("asha: tuner requires a non-empty search space")
	}
	if t.algorithm == nil {
		return nil, fmt.Errorf("asha: tuner requires an algorithm")
	}
	if t.workers < 1 {
		return nil, fmt.Errorf("asha: tuner requires at least one worker")
	}
	// Every run is driven through a live-control gate. Without an admin
	// surface it is transparent (nobody flips it); with one, the
	// /v1/admin handlers pause, resume, or abort the run through it.
	sched := core.NewGate(t.algorithm.newScheduler(t.space, xrand.New(t.seed)))
	if t.maxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.maxDuration)
		defer cancel()
	}
	be, opt, err := t.backend.build(ctx, t, sched)
	if err != nil {
		return nil, err
	}
	opt.MaxJobs = t.maxJobs
	opt.Gate = sched
	rb, fleet := be.(*remote.Backend)
	if fleet {
		// Fleet runs get the full observability plane: events flow to the
		// server's /v1/events ring (when enabled), and below the admin API
		// is given its scheduler-side control plane.
		opt.Events = rb.Server().EventBus()
	}
	if opt.MaxJobs == 0 && opt.MaxTime == 0 && ctx.Done() == nil {
		_ = be.Close()
		return nil, fmt.Errorf("asha: unbounded run; set WithMaxJobs, WithMaxDuration, or a cancellable context")
	}
	if t.stateDir != "" {
		if err := os.MkdirAll(t.stateDir, 0o755); err != nil {
			_ = be.Close()
			return nil, fmt.Errorf("asha: state dir: %w", err)
		}
		journal, rs, serr := openJournal(filepath.Join(t.stateDir, tunerJournalName), state.Meta{
			Experiment: "tuner",
			Algo:       fmt.Sprintf("%T", t.algorithm),
			Seed:       t.seed,
			Params:     spaceParamNames(t.space),
		}, resume, sched, opt)
		if serr != nil {
			_ = be.Close()
			return nil, serr
		}
		// A failed close means the journal tail (including the final
		// snapshot) may never have reached disk: the run's durability
		// promise is broken, so surface it instead of a clean result.
		defer func() {
			if cerr := journal.Close(); cerr != nil && err == nil {
				result, err = nil, fmt.Errorf("asha: state journal: %w", cerr)
			}
		}()
		opt.Journal = journal
		opt.Resume = rs
	}
	if t.onProgress != nil {
		opt.OnResult = progressHook(opt.Resume, t.onProgress)
	}
	// A Tuner is the engine's one-lane case: the backend is both the
	// executor and the lane's view of it.
	eng := backend.NewEngine(be, nil)
	lane := eng.AddLane(sched, be, opt, 0, "")
	if fleet {
		rb.Server().SetControl(&controlPlane{eng: eng, exps: []*mgrExp{{lane: lane, sched: sched}}})
	}
	start := time.Now()
	err = eng.Run(ctx)
	run, laneErr := lane.Result()
	if laneErr != nil {
		err = laneErr
	}
	if err != nil {
		return nil, err
	}
	res := newResult(run, sched, time.Since(start))
	if res == nil {
		return nil, fmt.Errorf("asha: run completed no trials (budget too small?)")
	}
	return res, nil
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
// hook. The job count resumes where the journal left off; replayed
// completions never re-fire the callback.
func progressHook(rs *backend.ResumeState, fn func(Progress)) func(core.Result, core.Best, bool) {
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
		fn(p)
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
