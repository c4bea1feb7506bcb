package backend

import (
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

	issued        map[int64]struct{} // (trial, rung) pairs issued, for retry annotation
	rungCompleted []int              // successful completions per rung, for status
}

// Replay reconstructs a full engine ResumeState from a recovered
// journal by feeding its records through a freshly constructed
// scheduler, reproducing its state bit for bit: every issue record pulls
// the scheduler's own Next decision and validates it against the journal
// (trial, rung, target resource, inherit donor, and every configuration
// value, all bit-exact), and every report record is paired with its
// oldest outstanding issue and flows through the same ingest path live
// completions use, so counters, incumbent series and first-R accounting
// are rebuilt identically. It is the one replay path: Tuner.Resume,
// Manager.Resume and a federated adopt all call it.
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
	rs := &ResumeState{
		Run:    &metrics.Run{FirstRTime: math.Inf(1)},
		issued: make(map[int64]struct{}),
	}
	// Replayed completions never re-emit events (the emitter has no bus),
	// mirroring the OnResult convention above — consumers of /v1/events
	// see each pre-crash event at most once.
	l := &Lane{sched: sched, opt: opt, run: rs.Run, em: emitter{maxRung: -1}}
	// The trial table, indexed by trial id; Trial is -1 where the journal
	// has not issued that trial (yet).
	var table []state.TrialSnap
	for i, r := range rec.Records {
		switch {
		case r.Issue != nil:
			job, ok := sched.Next()
			if !ok {
				return nil, fmt.Errorf("backend: replay record %d: journal holds an issued job but the scheduler declined — journal does not match this scheduler configuration", i)
			}
			if err := matchIssue(job, r.Issue); err != nil {
				return nil, fmt.Errorf("backend: replay record %d: %w", i, err)
			}
			for len(table) <= job.TrialID {
				table = append(table, state.TrialSnap{Trial: -1})
			}
			table[job.TrialID].Trial = job.TrialID
			rs.Relaunch = append(rs.Relaunch, job)
			rs.Run.IssuedJobs++
			rs.issued[SeenKey(job.TrialID, job.Rung)] = struct{}{}
		case r.Report != nil:
			idx := -1
			for k, j := range rs.Relaunch {
				if j.TrialID == r.Report.Trial && j.Rung == r.Report.Rung {
					idx = k
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("backend: replay record %d: report for trial %d rung %d has no outstanding issue — corrupt journal", i, r.Report.Trial, r.Report.Rung)
			}
			job := rs.Relaunch[idx]
			rs.Relaunch = append(rs.Relaunch[:idx], rs.Relaunch[idx+1:]...)
			ingest(l, Completion{
				Job:      job,
				Loss:     r.Report.Loss,
				TrueLoss: r.Report.TrueLoss,
				Resource: r.Report.Resource,
				Time:     r.Report.Time,
				Failed:   r.Report.Failed,
			})
			if r.Report.Time > rs.TimeOffset {
				rs.TimeOffset = r.Report.Time
			}
		case r.Snap != nil:
			for _, ts := range r.Snap.Trials {
				if ts.Trial >= len(table) || table[ts.Trial].Trial < 0 {
					return nil, fmt.Errorf("backend: replay record %d: snapshot of trial %d, which the journal never issued — corrupt journal", i, ts.Trial)
				}
				table[ts.Trial] = ts
			}
			if r.Snap.Time > rs.TimeOffset {
				rs.TimeOffset = r.Snap.Time
			}
		}
	}
	rs.rungCompleted = l.rungCompleted
	// Restore the trial table: the checkpoints last snapshotted, and zero
	// entries for trials no snapshot reached. Those trials' observations
	// replayed into the scheduler above; only their training state is
	// lost, and a zero entry makes them retrain from scratch if relaunched
	// instead of vanishing from trial accounting — exactly the rollback
	// semantics of a worker crash.
	rs.Trials = slices.DeleteFunc(table, func(ts state.TrialSnap) bool { return ts.Trial < 0 })
	return rs, nil
}

// matchIssue validates that the scheduler's regenerated decision is the
// journaled one, bit for bit.
func matchIssue(job core.Job, is *state.Issue) error {
	if job.TrialID != is.Trial || job.Rung != is.Rung || job.InheritFrom != is.Inherit ||
		math.Float64bits(job.TargetResource) != math.Float64bits(is.Target) {
		return fmt.Errorf("backend: journal/scheduler divergence: journal issued trial %d rung %d target %v inherit %d, scheduler produced trial %d rung %d target %v inherit %d (wrong seed, algorithm, or edited journal?)",
			is.Trial, is.Rung, is.Target, is.Inherit, job.TrialID, job.Rung, job.TargetResource, job.InheritFrom)
	}
	if job.Config.Len() != len(is.Config) {
		return fmt.Errorf("backend: journal/scheduler divergence on trial %d: journal config has %d parameters, scheduler sampled %d", is.Trial, len(is.Config), job.Config.Len())
	}
	for name, v := range is.Config {
		got, ok := job.Config.Lookup(name)
		if !ok || math.Float64bits(got) != math.Float64bits(v) {
			return fmt.Errorf("backend: journal/scheduler divergence on trial %d parameter %q: journal %v, scheduler %v", is.Trial, name, v, got)
		}
	}
	return nil
}
