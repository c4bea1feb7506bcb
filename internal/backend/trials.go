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
	changed  bool // listed in Trials.changed
}

// slabLen is how many records a table cuts from one allocation. A
// trial's record lives as long as its table, so the chunking retains
// nothing a per-trial allocation would have freed.
const slabLen = 64

// Trials is one lane's trial table, the single owner of every trial's
// committed (resource, checkpoint) pair under the real executors: the
// goroutine pool, the subprocess pool and the remote fleet embed it, and
// through it implement TrialCheckpointer and Backend.Stats. Like a
// Backend it belongs to the engine goroutine. The zero value is an empty
// table.
type Trials struct {
	// byID is indexed by trial ID — schedulers issue dense IDs, so a
	// slice beats a map on the per-job lookup path.
	byID    []*trialRecord
	slab    []trialRecord // the unused tail of the newest chunk of records
	changed []int         // trials whose pair changed since SnapshotTrials last ran
}

// record returns the trial's record, creating it on first use.
func (t *Trials) record(id int) *trialRecord {
	if id >= len(t.byID) {
		t.byID = core.GrowTo(t.byID, id+1)
	}
	r := t.byID[id]
	if r == nil {
		if len(t.slab) == 0 {
			t.slab = make([]trialRecord, slabLen)
		}
		r = &t.slab[0]
		t.slab = t.slab[1:]
		t.byID[id] = r
	}
	return r
}

// Resolve is Launch's view of a job's trial: the resource and checkpoint
// the job resumes from, the trial created on first use. A job that
// inherits (inheritFrom >= 0, and a trial this table holds) first takes
// the donor's committed pair as its own — a change of the recipient's
// record, never of the donor's; inherited tells an executor that keeps
// more than the pair per trial to carry that over too.
func (t *Trials) Resolve(id, inheritFrom int) (from float64, state json.RawMessage, inherited bool) {
	r := t.record(id)
	if inheritFrom >= 0 && inheritFrom < len(t.byID) {
		if donor := t.byID[inheritFrom]; donor != nil {
			t.set(id, r, donor.resource, donor.state)
			inherited = true
		}
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
// Every writer goes through it except RestoreTrial: what that restores
// is in the journal already.
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
		r := t.byID[id]
		r.changed = false
		fn(id, r.resource, r.state)
	}
	t.changed = t.changed[:0]
}

// RestoreTrial implements TrialCheckpointer.
func (t *Trials) RestoreTrial(trial int, resource float64, state json.RawMessage) {
	if len(t.slab) == 0 {
		// A resume restores a whole table, a trial a call: its chunks
		// double with the table, where a run's trials arrive over time.
		t.slab = make([]trialRecord, min(max(slabLen, len(t.byID)), 1024))
	}
	r := t.record(trial)
	r.resource, r.state = resource, state
}

// Each streams the whole table to fn in trial order.
func (t *Trials) Each(fn func(trial int, resource float64, state json.RawMessage)) {
	for id, r := range t.byID {
		if r != nil {
			fn(id, r.resource, r.state)
		}
	}
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
