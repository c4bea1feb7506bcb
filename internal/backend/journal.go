package backend

import (
	"encoding/json"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/state"
)

// SeenKey packs a (trial, rung) pair into one map key for the issue-kind
// annotation. Rungs are tiny; 16 bits is orders of magnitude of
// headroom.
func SeenKey(trial, rung int) int64 { return int64(trial)<<16 | int64(rung&0xffff) }

// annotateIssue builds the journal record for one scheduler decision,
// classifying it as a fresh sample, a promotion, or a retry against the
// set of (trial, rung) pairs already issued — which it updates. It names
// the configuration's shared name table; the values travel beside it.
func annotateIssue(seen map[int64]struct{}, job core.Job) state.Issue {
	key := SeenKey(job.TrialID, job.Rung)
	kind := state.KindSample
	if _, dup := seen[key]; dup {
		kind = state.KindRetry
	} else if job.Rung > 0 {
		kind = state.KindPromote
	}
	seen[key] = struct{}{}
	return state.Issue{
		Trial:   job.TrialID,
		Rung:    job.Rung,
		Target:  job.TargetResource,
		Inherit: job.InheritFrom,
		Kind:    kind,
		Names:   job.Config.Names(),
	}
}

// journalWriter adapts a state.Journal to one engine lane: it annotates
// issue records with their decision kind, paces snapshots, and is a
// no-op when journaling is off (the zero value), keeping the engine's
// hot loop free of journal branches beyond one nil check.
type journalWriter struct {
	j          *state.Journal
	snapEvery  int
	sinceSnap  int
	lastTrials int                // trial-table size at the last snapshot
	seen       map[int64]struct{} // (trial, rung) pairs already issued
}

func newJournalWriter(j *state.Journal, every int) *journalWriter {
	if j == nil {
		return &journalWriter{}
	}
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	return &journalWriter{j: j, snapEvery: every, seen: make(map[int64]struct{})}
}

// prime carries the issued-pair set across a resume so retry annotations
// stay correct on the continued journal.
func (w *journalWriter) prime(rs *ResumeState) {
	if w.j == nil || rs == nil {
		return
	}
	for k := range rs.issued {
		w.seen[k] = struct{}{}
	}
}

// issue journals one scheduler decision, write-ahead of its launch.
func (w *journalWriter) issue(job core.Job) error {
	if w.j == nil {
		return nil
	}
	return w.j.AppendIssue(annotateIssue(w.seen, job), job.Config.Values())
}

// report journals one completion, write-ahead of its scheduler delivery.
func (w *journalWriter) report(c Completion) error {
	if w.j == nil {
		return nil
	}
	rep := state.Report{Trial: c.Job.TrialID, Rung: c.Job.Rung, Failed: c.Failed, Time: c.Time}
	if !c.Failed { // failed completions carry no observation
		rep.Loss, rep.TrueLoss, rep.Resource = c.Loss, c.TrueLoss, c.Resource
	}
	w.sinceSnap++
	return w.j.AppendReport(rep)
}

// due reports whether enough completions have accumulated since the
// last snapshot for a periodic one. The cadence adapts to the
// trial-table size (at least a quarter of it must complete between
// snapshots), so total snapshot volume stays linear in the journal's
// report volume instead of quadratic on runs with very wide bottom
// rungs.
func (w *journalWriter) due() bool {
	return w.j != nil && w.sinceSnap >= w.snapEvery && 4*w.sinceSnap >= w.lastTrials
}

// snapshot journals the lane's counters and its executor view's trial
// table; final marks a clean end of run.
func (w *journalWriter) snapshot(run *metrics.Run, b Backend, now float64, final bool) error {
	w.sinceSnap = 0
	snap := state.Snapshot{
		Issued:    run.IssuedJobs,
		Completed: run.CompletedJobs,
		Failed:    run.FailedJobs,
		Time:      now,
		Final:     final,
	}
	if tc, ok := b.(TrialCheckpointer); ok {
		tc.SnapshotTrials(func(trial int, resource float64, st json.RawMessage) {
			snap.Trials = append(snap.Trials, state.TrialSnap{Trial: trial, Resource: resource, State: st})
		})
		// Backends iterate map-ordered trial tables; sort so identical
		// state always journals identical bytes.
		sort.Slice(snap.Trials, func(i, k int) bool { return snap.Trials[i].Trial < snap.Trials[k].Trial })
	}
	w.lastTrials = len(snap.Trials)
	return w.j.AppendSnapshot(snap)
}
