package backend

import (
	"encoding/json"
	"slices"

	"repro/internal/core"
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
	if trial >= len(s.rungs) {
		s.rungs = core.GrowTo(s.rungs, trial+1)
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
// two flush points, paces snapshots and checkpoints, and is a no-op when
// journaling is off (the zero value), keeping the engine's hot loop free
// of journal branches beyond one nil check.
type journalWriter struct {
	j         *state.Journal
	snapEvery int
	sinceSnap int
	seen      issuedSet         // (trial, rung) pairs already issued
	trials    []state.TrialSnap // scratch: a snapshot's trial list

	// A lane whose scheduler has a codec writes checkpoint records (see
	// snapshot); one without pays none of this.
	codec    core.StateCodec
	out      pending // the issued, unreported jobs: a checkpoint's in-flight list
	ckptSize int64   // the last checkpoint's frame bytes; 0 before the first
	ckptEnd  int64   // the journal's Bytes just past the flush that wrote it
	stale    bool    // an issue or report was journaled since
	ckpt     state.Checkpoint
	inFlight []state.Pending // scratch: ckpt.InFlight
}

// Checkpoint pacing. A checkpoint goes in front of the final snapshot
// whenever anything but snapshots was journaled since the last one, and
// in front of a periodic snapshot once the journal has grown by
// checkpointGrowth times the last checkpoint's size since it. Checkpoint
// i is then at most 1/checkpointGrowth of the bytes journaled between it
// and checkpoint i-1, so checkpoints add at most half the history (plus
// the final one), and with a scheduler image about a fifth of the
// history's size (ASHA: ~22 bytes a job against ~105 of records) a
// resume replays at most ~30% of the history behind the last checkpoint.
const checkpointGrowth = 2

func newJournalWriter(j *state.Journal, every int) *journalWriter {
	if j == nil {
		return &journalWriter{}
	}
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	return &journalWriter{j: j, snapEvery: every}
}

// resume continues the journal a replay restored rs from: the lane's
// in-flight jobs and the pace of its checkpoints.
func (w *journalWriter) resume(rs *ResumeState) {
	w.seen = rs.issued // handed over: retry annotations stay correct on the continued journal
	if w.j == nil {
		return
	}
	if w.codec = rs.codec; w.codec != nil {
		for _, job := range rs.Relaunch {
			w.out.push(job)
		}
	}
	w.ckptSize, w.ckptEnd, w.stale = rs.pace.size, w.j.Bytes()-rs.pace.since, rs.pace.stale
}

// issue stages one scheduler decision; flush commits it, write-ahead of
// the job's launch.
func (w *journalWriter) issue(job core.Job) error {
	if w.j == nil {
		return nil
	}
	if w.codec != nil {
		w.out.push(job)
	}
	w.stale = true
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
	if w.codec != nil {
		w.out.take(c.Job.TrialID, c.Job.Rung)
	}
	w.sinceSnap++
	w.stale = true
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
// marks a clean end of run. When one is due (checkpointGrowth), a
// checkpoint of the lane goes in front of it, in the same Write, encoded
// into scratch: one buffer the engine's lanes share.
func (w *journalWriter) snapshot(l *Lane, scratch *[]byte, now float64, final bool) error {
	w.sinceSnap = 0
	run := l.run
	snap := state.Snapshot{
		Issued:    run.IssuedJobs,
		Completed: run.CompletedJobs,
		Failed:    run.FailedJobs,
		Time:      now,
		Final:     final,
	}
	if tc, ok := l.exec.(TrialCheckpointer); ok {
		w.trials = w.trials[:0]
		tc.SnapshotTrials(func(trial int, resource float64, st json.RawMessage) {
			w.trials = append(w.trials, state.TrialSnap{Trial: trial, Resource: resource, State: st})
		})
		// Backends stream in the order trials changed; sort so identical
		// state always journals identical bytes.
		slices.SortFunc(w.trials, func(a, b state.TrialSnap) int { return a.Trial - b.Trial })
		snap.Trials = w.trials
	}
	if !w.stale || w.codec == nil || (!final && w.j.Bytes()-w.ckptEnd < checkpointGrowth*w.ckptSize) {
		return w.j.AppendSnapshot(snap)
	}
	c := &w.ckpt
	c.Issued, c.Completed, c.Failed, c.RungCompleted = run.IssuedJobs, run.CompletedJobs, run.FailedJobs, l.rungCompleted
	c.Series, c.Names, w.inFlight = run.Series, nil, w.inFlight[:0]
	for _, job := range w.out.list() { // one space: one names table
		c.Names = job.Config.Names()
		w.inFlight = append(w.inFlight, state.Pending{Trial: job.TrialID, Rung: job.Rung, Inherit: job.InheritFrom,
			Target: job.TargetResource, Vals: job.Config.Values()})
	}
	c.InFlight = w.inFlight
	size, err := w.j.AppendCheckpoint(scratch, c, w.codec.AppendState, &snap)
	switch {
	case err != nil:
	case size == 0: // the scheduler declined: it cannot be checkpointed
		w.codec, w.out = nil, pending{}
	default:
		w.ckptSize, w.ckptEnd, w.stale = size, w.j.Bytes(), false
	}
	return err
}
