package asha

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/state"
	"repro/internal/xrand"
)

// Experiment describes one named tuning experiment for a Manager: its
// own search space, objective, algorithm, seed and job budget. Distinct
// experiments are fully independent — only the worker budget is shared.
type Experiment struct {
	// Name identifies the experiment in progress events and results.
	Name      string
	Space     *Space
	Objective Objective
	Algorithm Algorithm
	// Seed seeds the experiment's sampling randomness (default 1).
	Seed uint64
	// MaxJobs bounds the experiment's issued training jobs. Required
	// unless the Run context is cancellable.
	MaxJobs int
}

// ExperimentProgress is a live snapshot handed to WithManagerProgress:
// the regular Progress plus which experiment it belongs to.
type ExperimentProgress struct {
	Experiment string
	Progress
}

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithManagerWorkers sets the shared global worker budget (default 1):
// the total number of training jobs in flight across all experiments —
// the pool's goroutines, or under WithManagerRemote the fleet's lease
// cap unless Remote.MaxLeases sets it.
func WithManagerWorkers(n int) ManagerOption { return func(m *Manager) { m.workers = n } }

// WithManagerProgress installs a callback invoked after every completed
// job of any experiment. It runs on the engine goroutine; keep it fast.
func WithManagerProgress(fn func(p ExperimentProgress)) ManagerOption {
	return func(m *Manager) { m.onProgress = fn }
}

// WithManagerStateDir makes every experiment durable: each gets its own
// append-only journal (<name>.journal) in dir, written ahead of every
// scheduler decision, with periodic snapshots of its trial checkpoints.
// Run starts fresh journals (truncating previous ones); Resume replays
// existing journals and continues every experiment where it left off.
func WithManagerStateDir(dir string) ManagerOption {
	return func(m *Manager) { m.stateDir = dir }
}

// WithManagerRemote makes r the Manager's backend, in place of the
// in-process pool: every experiment's training jobs go to a distributed
// worker fleet through one embedded HTTP job-lease server (see Remote),
// built and announced exactly as a Tuner's. Jobs carry their
// experiment's name so a worker can route them to the right objective
// (RemoteWorker.Objectives), and r.MaxLeases — the shared worker budget
// when unset — is both the lease cap and the jobs in flight across all
// experiments. Experiment objectives run worker-side and may be nil in
// the Experiment specs. A job lost to a worker crash or lease expiry is
// reported Failed to its experiment's scheduler, which requeues it. A
// Remote naming a Coordinator makes the Manager a federated shard whose
// experiments all start dormant.
func WithManagerRemote(r Remote) ManagerOption {
	return func(m *Manager) { m.backend, m.dormant = r, r.Coordinator != "" }
}

// WithManagerTenantQuotas turns the engine's fair share two-level: free
// worker slots are first balanced across tenant namespaces (the prefix
// before '/' in experiment names) proportionally to the given weights,
// then within the chosen tenant by the usual fewest-running rule.
// Tenants absent from the map get weight 1; weights below 1 are treated
// as 1. A tenant with nothing running always wins its next slot, so no
// tenant can be starved however wide the others are. Without this
// option slot allocation is exactly the single-tenant fair share it
// always was.
func WithManagerTenantQuotas(weights map[string]int) ManagerOption {
	return func(m *Manager) {
		m.tenantQuotas = make(map[string]int, len(weights))
		for t, w := range weights {
			if w < 1 {
				w = 1
			}
			m.tenantQuotas[t] = w
		}
	}
}

// Manager runs many named tuning experiments concurrently against one
// shared global worker budget. Free workers are assigned fair-share:
// each slot goes to the runnable experiment with the fewest jobs in
// flight, so a wide experiment cannot starve a narrow one. The Manager
// owns validation, journal files, the admin control plane and result
// assembly, for a Tuner too, which is a Manager of one; every experiment
// is one lane of the engine (internal/backend), which does all
// scheduling, journaling and event publishing.
type Manager struct {
	workers      int
	onProgress   func(ExperimentProgress)
	backend      Backend // GoroutinePool, or a Remote under WithManagerRemote
	stateDir     string
	experiments  []Experiment
	names        map[string]bool
	tenantQuotas map[string]int
	// dormant starts every experiment dormant — registered, visible in
	// status, but issuing no jobs and opening no journal — until an adopt
	// activates it. A federated shard (Remote.Coordinator) loads the full
	// manifest this way, so boot and failover are the same adoption.
	dormant bool
}

// NewManager assembles a Manager; add experiments with Add.
func NewManager(opts ...ManagerOption) *Manager {
	m := &Manager{workers: 1, names: make(map[string]bool), backend: GoroutinePool{}}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Add registers an experiment. Names must be unique and non-empty, and
// every experiment needs a space, an objective and an algorithm.
func (m *Manager) Add(e Experiment) error {
	if e.Name == "" {
		return fmt.Errorf("asha: experiment needs a name")
	}
	if m.names[e.Name] {
		return fmt.Errorf("asha: duplicate experiment name %q", e.Name)
	}
	if e.Space == nil || e.Space.Dim() == 0 {
		return fmt.Errorf("asha: experiment %q needs a non-empty search space", e.Name)
	}
	if _, fleet := m.backend.(Remote); e.Objective == nil && !fleet {
		return fmt.Errorf("asha: experiment %q needs an objective", e.Name)
	}
	if e.Algorithm == nil {
		return fmt.Errorf("asha: experiment %q needs an algorithm", e.Name)
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	m.names[e.Name] = true
	m.experiments = append(m.experiments, e)
	return nil
}

// mgrExp is one experiment of a run as the Manager and the control plane
// see it: its spec and, while this node schedules it, its engine lane.
type mgrExp struct {
	spec   Experiment
	rank   int    // registration order: the slot policy's tie-break of last resort
	tenant string // namespace prefix of the name, for the quota fair share
	// lane is nil while the experiment is dormant: known to this node but
	// not run by it — no jobs issued, no journal open — until an adopt
	// (the shard's coordinator link, or an operator) activates it. sched
	// is the lane's gated scheduler, journal its open journal (nil
	// without a state dir).
	lane    *backend.Lane
	sched   *core.Gate
	journal *state.Journal
	// aborted marks an experiment aborted while dormant, when there is no
	// gate to remember it.
	aborted bool
	// res or err is the outcome once the run has finished it.
	res *Result
	err error
}

// mgrRun is the transient state of one run: a Manager's, or a Tuner's
// run of its one unnamed experiment.
type mgrRun struct {
	m    *Manager // settings: the Manager's, or the one a Tuner keeps
	eng  *backend.Engine
	exps []*mgrExp
	// root is the run's one executor, which Backend.build starts. view,
	// if the executor has lanes, builds an experiment's view of it — its
	// own trial table over the pool's goroutines or the fleet's server;
	// a Subprocess or a Simulation has none, and its one lane runs on
	// root itself.
	root backend.Backend
	view func(lane int, spec Experiment) backend.Backend
	base backend.Options // what root budgets for every lane: the simulator's clock and resource cap
	bus  *obs.Bus        // lifecycle events in fleet mode (nil otherwise)
}

// Run executes every added experiment to completion of its budget (or
// scheduler) and returns per-experiment results keyed by name. A failed
// experiment (objective error) is finalized with its error and excluded
// from the map without stopping the others; the joined errors are
// returned alongside the successful results. Cancelling the context
// stops all experiments cleanly. With WithManagerStateDir every
// experiment is journaled from scratch, truncating previous journals.
func (m *Manager) Run(ctx context.Context) (map[string]*Result, error) {
	return m.run(ctx, false)
}

// Resume continues journaled experiments from the manager's state
// directory: every added experiment whose journal exists is replayed to
// the exact scheduler state it died with (completed work is not re-run,
// in-flight jobs are relaunched, trial checkpoints restore from the
// snapshots), and experiments without a journal start fresh. The
// manager must be configured with the same experiments — same names,
// spaces, algorithms, seeds — which Resume verifies per journal. In
// fleet mode the lease table restarts empty: journaled in-flight jobs
// are requeued for whichever workers connect, and stale reports from
// pre-restart leases are rejected, keeping delivery exactly-once.
func (m *Manager) Resume(ctx context.Context) (map[string]*Result, error) {
	return m.run(ctx, true)
}

func (m *Manager) run(ctx context.Context, resume bool) (map[string]*Result, error) {
	if len(m.experiments) == 0 {
		return nil, fmt.Errorf("asha: manager has no experiments")
	}
	if m.workers < 1 {
		return nil, fmt.Errorf("asha: manager requires at least one worker")
	}
	r := &mgrRun{m: m}
	for i, spec := range m.experiments {
		// The engine reads a budget of 0 or less as none at all.
		if spec.MaxJobs < 0 {
			return nil, fmt.Errorf("asha: experiment %q has a negative MaxJobs (%d)", spec.Name, spec.MaxJobs)
		}
		if spec.MaxJobs == 0 && ctx.Done() == nil {
			return nil, fmt.Errorf("asha: experiment %q is unbounded; set MaxJobs or pass a cancellable context", spec.Name)
		}
		r.exps = append(r.exps, &mgrExp{spec: spec, rank: i, tenant: remote.TenantOf(spec.Name)})
	}
	errs := []error{r.run(ctx, resume)}
	out := make(map[string]*Result, len(r.exps))
	for _, e := range r.exps {
		if e.err != nil {
			errs = append(errs, fmt.Errorf("experiment %q: %w", e.spec.Name, e.err))
		} else if e.res != nil {
			out[e.spec.Name] = e.res
		}
	}
	return out, errors.Join(errs...)
}

// run is the one run path of a Manager's experiments and a Tuner's one,
// past their option checks: it prepares the state dir, builds the
// executor through the Backend, activates each experiment (or leaves it
// dormant), attaches the control plane to a fleet's lease server —
// which announces the server — drives the engine over root, and
// finishes every lane, closing its journal and leaving its Result or
// error on its mgrExp. It returns the state dir's, the build's or the
// executor's error. A failed activation is left on its experiment and
// ends the run before it starts or is announced, closing root and the
// journals opened before it.
func (r *mgrRun) run(ctx context.Context, resume bool) error {
	if err := r.prepareStateDir(); err != nil {
		return err
	}
	if err := r.m.backend.build(ctx, r); err != nil {
		return err
	}
	r.eng = backend.NewEngine(r.root, r.m.tenantQuotas)
	for _, e := range r.exps {
		if r.m.dormant {
			r.eng.Dormant++
			continue
		}
		if e.err = r.activate(e, resume); e.err != nil {
			for _, opened := range r.exps {
				if opened.journal != nil {
					_ = opened.journal.Close()
				}
			}
			_ = r.root.Close()
			return nil
		}
	}
	if fleet, ok := r.root.(*remote.Backend); ok {
		// The run is whole: a federated shard's coordinator link starts
		// here and the server is announced, and the adopts and admin
		// commands either sends queue on the engine until Run takes them.
		fleet.Server().SetControl(r)
	}

	start := time.Now()
	err := r.eng.Run(ctx)
	for _, e := range r.exps {
		if e.lane == nil {
			continue // dormant to the end: no journal open, no result
		}
		run, lerr := e.lane.Result()
		if e.journal != nil {
			// A failed close means the journal tail (including the final
			// snapshot) may never have reached disk: the run's durability
			// promise is broken, so surface it instead of a clean result.
			if cerr := e.journal.Close(); cerr != nil && lerr == nil {
				lerr = fmt.Errorf("asha: state journal: %w", cerr)
			}
		}
		if e.err = lerr; lerr == nil {
			e.res = newResult(run, e.sched, time.Since(start))
		}
	}
	return err
}

// activate puts an experiment on the engine: a fresh gated scheduler, a
// lane over the executor and — with a state dir — its journal, which on
// resume is recovered and replayed first if it exists. A Tuner's run,
// a Manager's and an admin adopt all activate through here. The gate is
// transparent until an admin command pauses, resumes or aborts through
// it.
func (r *mgrRun) activate(e *mgrExp, resume bool) error {
	e.sched = core.NewGate(e.spec.Algorithm.newScheduler(e.spec.Space, xrand.New(e.spec.Seed)))
	opt := r.base
	opt.MaxJobs, opt.Gate, opt.Events, opt.Experiment = e.spec.MaxJobs, e.sched, r.bus, e.spec.Name
	if dir := r.m.stateDir; dir != "" {
		name, file := e.spec.Name, tunerJournalName
		if name == "" {
			name = "tuner" // a Tuner's unnamed experiment
		} else {
			file = journalFileName(name)
		}
		journal, rs, err := openJournal(filepath.Join(dir, file), state.Meta{
			Experiment: name,
			Algo:       fmt.Sprintf("%T", e.spec.Algorithm),
			Seed:       e.spec.Seed,
			Params:     spaceParamNames(e.spec.Space),
		}, resume, e.sched, opt)
		if err != nil {
			return err
		}
		e.journal, opt.Journal, opt.Resume = journal, journal, rs
	}
	if fn := r.m.onProgress; fn != nil {
		opt.OnResult = progressHook(opt.Resume, e.spec.Name, fn)
	}
	lane := r.root
	if r.view != nil {
		lane = r.view(r.eng.NextLane(), e.spec)
	}
	e.lane = r.eng.AddLane(e.sched, lane, opt, e.rank, e.tenant)
	return nil
}

// deactivate is activate's inverse — the fencing half of failover. The
// lane is retired, so results of its in-flight jobs are discarded on
// arrival instead of being applied (or journaled) after a re-adoption
// has replayed those jobs; the journal closes, because the adopting
// survivor now owns the file; and the scheduler is forgotten, so a
// later re-adoption replays the journal into a fresh one instead of
// double-applying decisions.
func (r *mgrRun) deactivate(e *mgrExp) {
	r.eng.Retire(e.lane)
	if e.journal != nil {
		_ = e.journal.Close()
	}
	e.lane, e.sched, e.journal = nil, nil, nil
}

// journalFileName maps an experiment name to its journal file,
// sanitizing characters that do not belong in a single path component.
func journalFileName(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out) + ".journal"
}

// prepareStateDir creates the state directory, if there is one, and
// refuses experiment names that sanitize onto one journal file ("exp/1"
// and "exp_1"): two journals sharing a file would silently corrupt each
// other. Dormant experiments are checked too — an adopt opens theirs
// later. It runs before the executor starts, so a refusal starts nothing.
func (r *mgrRun) prepareStateDir() error {
	dir := r.m.stateDir
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("asha: state dir: %w", err)
	}
	files := make(map[string]string, len(r.exps))
	for _, e := range r.exps {
		name := journalFileName(e.spec.Name)
		if prev, dup := files[name]; dup {
			return fmt.Errorf("asha: experiments %q and %q map to the same journal file %s; rename one", prev, e.spec.Name, name)
		}
		files[name] = e.spec.Name
	}
	return nil
}
