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
	"repro/internal/exec"
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
// the total number of training jobs in flight across all experiments.
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

// WithManagerRemote serves every experiment's training jobs to a
// distributed worker fleet instead of the in-process pool: the manager
// embeds one HTTP job-lease server (see the Remote backend), jobs carry
// their experiment's name so a worker can route them to the right
// objective (RemoteWorker.Objectives), and the shared worker budget
// bounds the fleet's concurrently leased jobs. Experiment objectives
// run worker-side and may be nil in the Experiment specs. A job lost to
// a worker crash or lease expiry is reported Failed to its experiment's
// scheduler, which requeues it. A Remote naming a Coordinator makes the
// Manager a federated shard whose experiments all start dormant.
func WithManagerRemote(r Remote) ManagerOption {
	return func(m *Manager) { m.remote, m.dormant = &r, r.Coordinator != "" }
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
// itself owns only what is multi-experiment — validation, journal files,
// the admin control plane and result assembly; every experiment is one
// lane of the same engine a Tuner runs on (internal/backend), which does
// all scheduling, journaling and event publishing.
type Manager struct {
	workers      int
	onProgress   func(ExperimentProgress)
	remote       *Remote
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
	m := &Manager{workers: 1, names: make(map[string]bool)}
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
	if e.Objective == nil && m.remote == nil {
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
}

// mgrRun is the transient state of one Manager.Run call.
type mgrRun struct {
	m    *Manager
	eng  *backend.Engine
	exps []*mgrExp
	// view builds an experiment's lane view of the shared executor: its
	// own trial table over the pool's goroutines or the fleet's server.
	view func(lane int, spec Experiment) backend.Backend
	bus  *obs.Bus // lifecycle events in fleet mode (nil otherwise)
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
		if spec.MaxJobs == 0 && ctx.Done() == nil {
			return nil, fmt.Errorf("asha: experiment %q is unbounded; set MaxJobs or pass a cancellable context", spec.Name)
		}
		r.exps = append(r.exps, &mgrExp{spec: spec, rank: i, tenant: remote.TenantOf(spec.Name)})
	}
	if m.stateDir != "" {
		if err := m.prepareStateDir(); err != nil {
			return nil, err
		}
	}
	// One executor serves every experiment. Fleet mode: one embedded
	// lease server runs the jobs on remote workers and no local pool is
	// started.
	var root backend.Backend
	var srv *remote.Server
	if m.remote != nil {
		var err error
		if srv, _, err = m.remote.newServer(m.workers); err != nil {
			return nil, err
		}
		fleet := remote.NewBackend(srv, m.workers)
		root, r.bus = fleet, srv.EventBus()
		r.view = func(lane int, spec Experiment) backend.Backend { return fleet.Lane(lane, spec.Name) }
	} else {
		pool := exec.NewPool(ctx, nil, m.workers)
		root = pool
		r.view = func(lane int, spec Experiment) backend.Backend {
			return pool.Lane(lane, exec.Objective(spec.Objective))
		}
	}
	r.eng = backend.NewEngine(root, m.tenantQuotas)
	for _, e := range r.exps {
		if m.dormant {
			r.eng.Dormant++
			continue
		}
		if err := r.activate(e, resume); err != nil {
			for _, opened := range r.exps {
				if opened.journal != nil {
					_ = opened.journal.Close()
				}
			}
			_ = root.Close()
			return nil, err
		}
	}
	if srv != nil {
		// A federated shard's coordinator link starts here: its adopts
		// queue on the engine and run once Run below takes them.
		srv.SetControl(&controlPlane{eng: r.eng, exps: r.exps, run: r})
	}

	start := time.Now()
	var errs []error
	if err := r.eng.Run(ctx); err != nil {
		errs = append(errs, err)
	}
	out := make(map[string]*Result, len(r.exps))
	for _, e := range r.exps {
		if e.lane == nil {
			continue // dormant to the end: no journal open, no result
		}
		run, err := e.lane.Result()
		if e.journal != nil {
			// A failed close means the journal tail (including the final
			// snapshot) may never have reached disk.
			if cerr := e.journal.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("state journal: %w", cerr)
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("experiment %q: %w", e.spec.Name, err))
			continue
		}
		if res := newResult(run, e.sched, time.Since(start)); res != nil {
			out[e.spec.Name] = res
		}
	}
	return out, errors.Join(errs...)
}

// activate puts an experiment on the engine: a fresh gated scheduler, a
// lane view of the executor and — with a state dir — its journal, which
// on resume is recovered and replayed first if it exists. Run, Resume
// and an admin adopt all activate through here.
func (r *mgrRun) activate(e *mgrExp, resume bool) error {
	e.sched = core.NewGate(e.spec.Algorithm.newScheduler(e.spec.Space, xrand.New(e.spec.Seed)))
	opt := backend.Options{MaxJobs: e.spec.MaxJobs, Gate: e.sched, Events: r.bus, Experiment: e.spec.Name}
	if dir := r.m.stateDir; dir != "" {
		journal, rs, err := openJournal(filepath.Join(dir, journalFileName(e.spec.Name)), state.Meta{
			Experiment: e.spec.Name,
			Algo:       fmt.Sprintf("%T", e.spec.Algorithm),
			Seed:       e.spec.Seed,
			Params:     spaceParamNames(e.spec.Space),
		}, resume, e.sched, opt)
		if err != nil {
			return fmt.Errorf("experiment %q: %w", e.spec.Name, err)
		}
		e.journal, opt.Journal, opt.Resume = journal, journal, rs
	}
	if fn := r.m.onProgress; fn != nil {
		name := e.spec.Name
		opt.OnResult = progressHook(opt.Resume, func(p Progress) {
			fn(ExperimentProgress{Experiment: name, Progress: p})
		})
	}
	e.lane = r.eng.AddLane(e.sched, r.view(r.eng.NextLane(), e.spec), opt, e.rank, e.tenant)
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

// prepareStateDir creates the state directory and refuses experiment
// names that sanitize onto one journal file ("exp/1" and "exp_1"): two
// journals sharing a file would silently corrupt each other. Dormant
// experiments are checked too — an adopt opens theirs later.
func (m *Manager) prepareStateDir() error {
	if err := os.MkdirAll(m.stateDir, 0o755); err != nil {
		return fmt.Errorf("asha: state dir: %w", err)
	}
	files := make(map[string]string, len(m.experiments))
	for _, e := range m.experiments {
		name := journalFileName(e.Name)
		if prev, dup := files[name]; dup {
			return fmt.Errorf("asha: experiments %q and %q map to the same journal file %s; rename one", prev, e.Name, name)
		}
		files[name] = e.Name
	}
	return nil
}
