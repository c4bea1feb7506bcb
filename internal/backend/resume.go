package backend

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/state"
)

// ResumeState is the outcome of replaying a recovered journal: everything
// Drive needs to continue the run exactly where the journal left off.
type ResumeState struct {
	// Run carries the restored counters, incumbent series and first-R
	// accounting; Drive mutates it in place as the run continues.
	Run *metrics.Run
	// Relaunch are the journaled in-flight jobs — issued, never reported —
	// in issue order. Drive relaunches them before consulting the
	// scheduler, without new issue records.
	Relaunch []core.Job
	// Trials is the restored trial table, by trial: the union of the
	// journal's snapshots, later over earlier, plus a zero-resource entry
	// for every issued trial no snapshot names.
	Trials []state.TrialSnap
	// TimeOffset is the journal's maximum recorded time; the resumed
	// run's clock continues from it so the incumbent series stays
	// monotone.
	TimeOffset float64

	issued        issuedSet // (trial, rung) pairs issued, for retry annotation
	rungCompleted []int     // successful completions per rung, for status
}

// Replay reconstructs a full engine ResumeState from a recovered
// journal by feeding its records through a freshly constructed
// scheduler, reproducing its state bit for bit: every issue record pulls
// the scheduler's own Next decision and validates it against the journal
// (trial, rung, target resource, inherit donor, and every configuration
// value, all bit-exact), and every report record is paired with its
// oldest outstanding issue and flows through the same ingest path live
// completions use, so counters, incumbent series and first-R accounting
// are rebuilt identically. There is one replay path, the replayer's
// steps: Tuner.Resume, Manager.Resume and a federated adopt feed it from
// the journal image (ReplayScan), Replay from records already collected.
//
// The scheduler must be deterministic and seeded exactly as the
// journaled run was — any divergence (wrong seed, changed algorithm or
// space, edited journal) is detected and returned as an error rather
// than silently corrupting the run.
//
// opt should match the original run's Evaluator/MaxResource settings;
// OnResult is typically nil during replay so progress callbacks do not
// re-fire for jobs that completed before the crash.
func Replay(rec *state.Recovered, sched core.Scheduler, opt Options) (*ResumeState, error) {
	p := newReplayer(sched, opt)
	for i := range rec.Records {
		if err := p.step(&rec.Records[i], nil); err != nil {
			return nil, err
		}
	}
	return p.finish(), nil
}

// ReplayScan is Replay of a journal as it is decoded: one pass over the
// image, no record built. It leaves s at its recovery point.
func ReplayScan(s *state.Scanner, sched core.Scheduler, opt Options) (*ResumeState, error) {
	p := newReplayer(sched, opt)
	for s.Scan() {
		if err := p.step(&s.Rec, s.Vals); err != nil {
			return nil, err
		}
	}
	return p.finish(), nil
}

// replayer steps a journal's records through a scheduler, one at a time.
type replayer struct {
	rs   *ResumeState
	lane *Lane
	n    int // records stepped
	// The trial table, indexed by trial id; Trial is -1 where the journal
	// has not issued that trial (yet).
	table []state.TrialSnap
	// The issued, unreported jobs in issue order, TrialID -1 once
	// reported, and by trial id one more than the index of the trial's in
	// out (0: none) — the oldest one as long as no trial had two at once;
	// after that (multi) a report searches out instead.
	out   []core.Job
	at    []int32
	dead  int
	multi bool
	vals  []float64 // scratch: a collected issue's Config as a vector
}

func newReplayer(sched core.Scheduler, opt Options) *replayer {
	rs := &ResumeState{Run: &metrics.Run{FirstRTime: math.Inf(1)}}
	// Replayed completions never re-emit events (the emitter has no bus),
	// mirroring the OnResult convention above — consumers of /v1/events
	// see each pre-crash event at most once.
	return &replayer{rs: rs, lane: &Lane{sched: sched, opt: opt, run: rs.Run, em: emitter{maxRung: -1}}}
}

// step replays one record; vals is an issue's configuration when the
// record does not hold it itself (state.Scanner).
func (p *replayer) step(r *state.Record, vals []float64) (err error) {
	switch {
	case r.Issue != nil:
		err = p.issue(r.Issue, vals)
	case r.Report != nil:
		err = p.report(r.Report)
	case r.Snap != nil:
		err = p.snap(r.Snap)
	}
	if err != nil {
		err = fmt.Errorf("backend: replay record %d: %w", p.n, err)
	}
	p.n++
	return err
}

func (p *replayer) issue(is *state.Issue, vals []float64) error {
	job, ok := p.lane.sched.Next()
	if !ok {
		return errors.New("journal holds an issued job but the scheduler declined — journal does not match this scheduler configuration")
	}
	if vals == nil {
		for _, name := range is.Names {
			p.vals = append(p.vals, is.Config[name])
		}
		vals, p.vals = p.vals, p.vals[:0]
	}
	if err := matchIssue(job, is, vals); err != nil {
		return err
	}
	for len(p.table) <= job.TrialID {
		p.table, p.at = append(p.table, state.TrialSnap{Trial: -1}), append(p.at, 0)
	}
	p.table[job.TrialID].Trial = job.TrialID
	p.multi = p.multi || p.at[job.TrialID] != 0
	p.out = append(p.out, job)
	p.at[job.TrialID] = int32(len(p.out))
	p.rs.Run.IssuedJobs++
	p.rs.issued.add(job.TrialID, job.Rung)
	return nil
}

func (p *replayer) report(r *state.Report) error {
	k := -1
	switch {
	case uint(r.Trial) >= uint(len(p.at)):
	case p.multi:
		k = slices.IndexFunc(p.out, func(j core.Job) bool { return j.TrialID == r.Trial && j.Rung == r.Rung })
	default:
		k = int(p.at[r.Trial]) - 1
	}
	if k < 0 || p.out[k].Rung != r.Rung {
		return fmt.Errorf("report for trial %d rung %d has no outstanding issue — corrupt journal", r.Trial, r.Rung)
	}
	job := p.out[k]
	p.out[k].TrialID, p.at[r.Trial] = -1, 0
	if p.dead++; p.dead > 32+len(p.out)/2 {
		p.compact()
	}
	ingest(p.lane, Completion{
		Job:      job,
		Loss:     r.Loss,
		TrueLoss: r.TrueLoss,
		Resource: r.Resource,
		Time:     r.Time,
		Failed:   r.Failed,
	})
	if r.Time > p.rs.TimeOffset {
		p.rs.TimeOffset = r.Time
	}
	return nil
}

// compact drops the reported jobs from out.
func (p *replayer) compact() {
	live := p.out[:0]
	for _, j := range p.out {
		if j.TrialID >= 0 {
			live = append(live, j)
			p.at[j.TrialID] = int32(len(live))
		}
	}
	p.out, p.dead = live, 0
}

func (p *replayer) snap(s *state.Snapshot) error {
	for _, ts := range s.Trials {
		if ts.Trial >= len(p.table) || p.table[ts.Trial].Trial < 0 {
			return fmt.Errorf("snapshot of trial %d, which the journal never issued — corrupt journal", ts.Trial)
		}
		p.table[ts.Trial] = ts
	}
	if s.Time > p.rs.TimeOffset {
		p.rs.TimeOffset = s.Time
	}
	return nil
}

func (p *replayer) finish() *ResumeState {
	p.compact()
	rs := p.rs
	rs.Relaunch, rs.rungCompleted = p.out, p.lane.rungCompleted
	// Restore the trial table: the checkpoints last snapshotted, and zero
	// entries for trials no snapshot reached. Those trials' observations
	// replayed into the scheduler above; only their training state is
	// lost, and a zero entry makes them retrain from scratch if relaunched
	// instead of vanishing from trial accounting — exactly the rollback
	// semantics of a worker crash.
	rs.Trials = slices.DeleteFunc(p.table, func(ts state.TrialSnap) bool { return ts.Trial < 0 })
	return rs
}

// matchIssue validates that the scheduler's regenerated decision is the
// journaled one, bit for bit; vals are the journaled configuration, one
// value per name of is.Names.
func matchIssue(job core.Job, is *state.Issue, vals []float64) error {
	if job.TrialID != is.Trial || job.Rung != is.Rung || job.InheritFrom != is.Inherit ||
		math.Float64bits(job.TargetResource) != math.Float64bits(is.Target) {
		return fmt.Errorf("backend: journal/scheduler divergence: journal issued trial %d rung %d target %v inherit %d, scheduler produced trial %d rung %d target %v inherit %d (wrong seed, algorithm, or edited journal?)",
			is.Trial, is.Rung, is.Target, is.Inherit, job.TrialID, job.Rung, job.TargetResource, job.InheritFrom)
	}
	names, got := job.Config.Names(), job.Config.Values()
	if len(got) != len(vals) || len(is.Names) != len(vals) {
		return fmt.Errorf("backend: journal/scheduler divergence on trial %d: journal config has %d parameters, scheduler sampled %d", is.Trial, len(vals), len(got))
	}
	for i, v := range vals {
		if is.Names[i] != names[i] || math.Float64bits(got[i]) != math.Float64bits(v) {
			return fmt.Errorf("backend: journal/scheduler divergence on trial %d parameter %q: journal %v, scheduler %q %v", is.Trial, is.Names[i], v, names[i], got[i])
		}
	}
	return nil
}
