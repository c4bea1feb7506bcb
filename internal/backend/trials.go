package backend

import (
	"encoding/json"

	"repro/internal/core"
)

// trialRecord is one trial's committed state: the cumulative resource it
// last finished a job at and the checkpoint that job left. The pair only
// moves on success, so a job lost to a crashed worker, an expired lease or
// an objective error resumes from the previous checkpoint.
type trialRecord struct {
	resource float64
	state    json.RawMessage
	started  bool // the trial was launched, committed, restored or issued
	changed  bool // listed in Trials.changed
}

// Trials is one lane's trial table, the single owner of every trial's
// committed (resource, checkpoint) pair under the real executors: the
// goroutine pool, the subprocess pool and the remote fleet embed it, and
// through it implement TrialCheckpointer and Backend.Stats. Like a
// Backend it belongs to the engine goroutine. The zero value is an empty
// table.
type Trials struct {
	// byID holds the records themselves, indexed by trial ID —
	// schedulers issue dense IDs, so a table beats a map on the per-job
	// lookup path; an entry not started is no trial's.
	byID    core.Table[trialRecord]
	changed []int // trials whose pair changed since SnapshotTrials last ran
}

// record returns the trial's record, starting it on first use.
func (t *Trials) record(id int) *trialRecord {
	r := t.byID.Ensure(id)
	r.started = true
	return r
}

// lookup returns the trial's record, nil when it was never started.
func (t *Trials) lookup(id int) *trialRecord {
	if r := t.byID.Find(id); r != nil && r.started {
		return r
	}
	return nil
}

// Resolve is Launch's view of a job's trial: the resource and checkpoint
// the job resumes from, the trial created on first use. A job that
// inherits (inheritFrom >= 0, and a trial this table holds) first takes
// the donor's committed pair as its own — a change of the recipient's
// record, never of the donor's; inherited tells an executor that keeps
// more than the pair per trial to carry that over too.
func (t *Trials) Resolve(id, inheritFrom int) (from float64, state json.RawMessage, inherited bool) {
	r := t.record(id)
	if donor := t.lookup(inheritFrom); donor != nil {
		t.set(id, r, donor.resource, donor.state)
		inherited = true
	}
	return r.resource, r.state, inherited
}

// Commit records a successful job: the trial reached resource and left
// state (nil when it has no serializable checkpoint). Executors call it
// for each successful completion, and from Close for the results still
// in flight when the run ended; a failed job is not committed.
func (t *Trials) Commit(id int, resource float64, state json.RawMessage) {
	t.set(id, t.record(id), resource, state)
}

// set writes a trial's pair and lists the trial for the next snapshot.
// Every writer goes through it except a restore (RestoreTrial, a replay):
// what that restores is in the journal already.
func (t *Trials) set(id int, r *trialRecord, resource float64, state json.RawMessage) {
	r.resource, r.state = resource, state
	if !r.changed {
		r.changed = true
		t.changed = append(t.changed, id)
	}
}

// SnapshotTrials implements TrialCheckpointer.
func (t *Trials) SnapshotTrials(fn func(trial int, resource float64, state json.RawMessage)) {
	for _, id := range t.changed {
		r := t.byID.At(id)
		r.changed = false
		fn(id, r.resource, r.state)
	}
	t.changed = t.changed[:0]
}

// RestoreTrial implements TrialCheckpointer.
func (t *Trials) RestoreTrial(trial int, resource float64, state json.RawMessage) {
	r := t.record(trial)
	r.resource, r.state = resource, state
}

// takeTrials moves src's table into t, an empty one such as a lane's
// fresh executor view, and empties src (AddLane).
func (t *Trials) takeTrials(src *Trials) { *t, *src = *src, Trials{} }

// Each streams the whole table to fn in trial order.
func (t *Trials) Each(fn func(trial int, resource float64, state json.RawMessage)) {
	t.byID.Each(func(id int, r *trialRecord) {
		if r.started {
			fn(id, r.resource, r.state)
		}
	})
}

// Stats implements Backend.Stats: the trials started and the resource
// they retain.
func (t *Trials) Stats() Stats {
	var st Stats
	t.Each(func(_ int, resource float64, _ json.RawMessage) {
		st.Trials++
		st.TotalResource += resource
	})
	return st
}
