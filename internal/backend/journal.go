package backend

import (
	"encoding/json"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/state"
)

// SeenKey packs a (trial, rung) pair into one int64: a job's id in
// bench/'s traces. Rungs above 16 bits collide.
func SeenKey(trial, rung int) int64 { return int64(trial)<<16 | int64(rung&0xffff) }

// issuedSet is the set of (trial, rung) pairs a journal has issued, for
// the issue-kind annotation. Trial ids are dense, rungs tiny: one bit
// mask per trial holds rungs 0–63, and an exact map the rest (PBT's
// rung is a step index without bound).
type issuedSet struct {
	rungs []uint64
	over  map[[2]int]bool
}

// add puts the pair in the set and reports whether it was there already.
func (s *issuedSet) add(trial, rung int) (dup bool) {
	if uint(rung) >= 64 {
		if s.over == nil {
			s.over = make(map[[2]int]bool)
		}
		dup, s.over[[2]int{trial, rung}] = s.over[[2]int{trial, rung}], true
		return dup
	}
	for len(s.rungs) <= trial {
		s.rungs = append(s.rungs, 0)
	}
	dup = s.rungs[trial]&(1<<rung) != 0
	s.rungs[trial] |= 1 << rung
	return dup
}

// annotateIssue builds the journal record for one scheduler decision,
// classifying it as a fresh sample, a promotion, or a retry against the
// set of (trial, rung) pairs already issued — which it updates. It names
// the configuration's shared name table; the values travel beside it.
func annotateIssue(seen *issuedSet, job core.Job) state.Issue {
	kind := state.KindSample
	if seen.add(job.TrialID, job.Rung) {
		kind = state.KindRetry
	} else if job.Rung > 0 {
		kind = state.KindPromote
	}
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
// issue records with their decision kind, stages records for the engine's
// two flush points, paces snapshots, and is a no-op when journaling is
// off (the zero value), keeping the engine's hot loop free of journal
// branches beyond one nil check.
type journalWriter struct {
	j         *state.Journal
	snapEvery int
	sinceSnap int
	seen      issuedSet         // (trial, rung) pairs already issued
	trials    []state.TrialSnap // scratch: a snapshot's trial list
}

func newJournalWriter(j *state.Journal, every int) *journalWriter {
	if j == nil {
		return &journalWriter{}
	}
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	return &journalWriter{j: j, snapEvery: every}
}

// issue stages one scheduler decision; flush commits it, write-ahead of
// the job's launch.
func (w *journalWriter) issue(job core.Job) error {
	if w.j == nil {
		return nil
	}
	return w.j.StageIssue(annotateIssue(&w.seen, job), job.Config.Values())
}

// report stages one completion; flush commits it, write-ahead of its
// scheduler delivery.
func (w *journalWriter) report(c Completion) error {
	if w.j == nil {
		return nil
	}
	rep := state.Report{Trial: c.Job.TrialID, Rung: c.Job.Rung, Failed: c.Failed, Time: c.Time}
	if !c.Failed { // failed completions carry no observation
		rep.Loss, rep.TrueLoss, rep.Resource = c.Loss, c.TrueLoss, c.Resource
	}
	w.sinceSnap++
	return w.j.Stage(state.Record{V: state.Version, Report: &rep})
}

// flush commits the staged records with one Write; without any it does
// nothing, so the engine may call it before every launch and ingest.
func (w *journalWriter) flush() error {
	if w.j == nil {
		return nil
	}
	return w.j.Flush()
}

// due reports whether enough completions have accumulated since the
// last snapshot for a periodic one. A snapshot carries at most one trial
// per completion since the previous one, so snapshot volume is linear in
// the journal's report volume at any cadence.
func (w *journalWriter) due() bool {
	return w.j != nil && w.sinceSnap >= w.snapEvery
}

// snapshot journals the lane's counters and the trials of its executor
// view whose committed state changed since the previous snapshot; final
// marks a clean end of run.
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
		w.trials = w.trials[:0]
		tc.SnapshotTrials(func(trial int, resource float64, st json.RawMessage) {
			w.trials = append(w.trials, state.TrialSnap{Trial: trial, Resource: resource, State: st})
		})
		// Backends stream in the order trials changed; sort so identical
		// state always journals identical bytes.
		slices.SortFunc(w.trials, func(a, b state.TrialSnap) int { return a.Trial - b.Trial })
		snap.Trials = w.trials
	}
	return w.j.AppendSnapshot(snap)
}
