// Package state implements the durable run state underneath checkpoint/
// resume: a write-ahead journal of every scheduler decision plus periodic
// snapshots of what changed in the executor's trial table, stored as a
// single append-only file per experiment.
//
// The file is a magic followed by one binary frame per record (codec.go
// has the layout): a length, a CRC32C, a type byte and the record's
// fields in the job wire's encoding (internal/wire). A configuration is
// its dense value vector against a names-table frame written when the
// table changes; checkpoints are the opaque JSON blobs workers produced;
// the format version is in the magic, so a reader refuses another
// format's file by name instead of misreading it. `ashactl journal`
// prints a journal as one JSON object per record.
//
// Durability contract (write-ahead discipline, enforced by the engine in
// internal/backend):
//
//   - the flush holding a job's issue record returns (written, and
//     optionally fsynced) BEFORE the job is handed to the execution
//     backend, so a job can never run without a durable record of its
//     issuance;
//   - the flush holding a report record returns BEFORE the result is
//     delivered to the scheduler, so the journal is always a superset of
//     scheduler state;
//   - a failed flush is sticky: the journal refuses all further records,
//     and the caller must abort the run rather than continue with a hole
//     in the log.
//
// Recovery (a Scanner, which a resume reads records off one at a time;
// Recover / RecoverFile collect what it scans) reads a file through a
// window of 256 KiB, or of its largest frame, never the whole file, and
// decodes each record where it lies: nothing aliases the window past the
// next Scan, and what a record keeps — a snapshot's trial checkpoints —
// aliases a copy. A read that fails is an error, not a torn tail.
// Recovery stops at the first torn,
// checksum-failing or undecodable frame: a crash mid-write leaves a
// truncated tail, which is a clean recovery point — everything before it
// is replayable, everything after it never affected scheduler state (the
// write-ahead ordering guarantees the corresponding Launch/Report never
// happened). Replaying the committed records into a scheduler of the
// same seed and configuration reproduces its state bit for bit; a
// checkpoint record carries that state as of where it stands — the
// scheduler's image and the engine lane's counters and in-flight jobs —
// so a replay restores the last one and steps only the records after
// it. That semantic replay is internal/backend.ReplayScan, while this
// package stays purely syntactic so the decoder can be fuzzed in
// isolation.
package state

import (
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
)

// Version is the journal format version, the last byte of the file's
// magic. A reader refuses files of any other version (ErrFormat). Format
// 4 added the checkpoint record, which a format-3 reader would take for
// a torn tail and cut off with everything behind it.
const Version = 4

// Meta is the journal's head record: enough identity to refuse resuming
// a run under a different experiment, seed, algorithm, or search space.
type Meta struct {
	// Experiment is the experiment name ("tuner" for single-tuner runs).
	Experiment string `json:"experiment"`
	// Algo describes the algorithm configuration (informational, but
	// compared on resume to catch operator error).
	Algo string `json:"algo,omitempty"`
	// Seed is the run's sampling seed: replay is only valid against a
	// scheduler built from the same seed.
	Seed uint64 `json:"seed"`
	// Params lists the search-space parameter names in index order.
	Params []string `json:"params,omitempty"`
}

// Issue records one scheduler decision to run a job — a fresh sample, a
// promotion, or a retry of a dropped job.
type Issue struct {
	// Trial identifies the configuration's stateful training run.
	Trial int `json:"trial"`
	// Rung is the rung index the job completes.
	Rung int `json:"rung"`
	// Target is the cumulative resource the job trains to.
	Target float64 `json:"target"`
	// Inherit names a donor trial for PBT-style exploit steps (-1 none).
	Inherit int `json:"inherit"`
	// Kind annotates the decision: "sample" (new bottom-rung
	// configuration), "promote" (rung k -> k+1), or "retry" (re-issue
	// after a failure). Derivable from the stream, recorded for
	// inspectability.
	Kind string `json:"kind,omitempty"`
	// Config is the name-keyed hyperparameter assignment. Replay
	// validates it bit-for-bit against the scheduler's regenerated
	// decision.
	Config map[string]float64 `json:"config,omitempty"`
	// Names is the table of distinct names the file lays Config's values
	// out against. Issues recovered from under one names frame share one
	// slice, and an append writes a names frame exactly when the slice
	// changes, so re-appending recovered records reproduces the file.
	Names []string `json:"-"`
}

// Issue kinds.
const (
	KindSample  = "sample"
	KindPromote = "promote"
	KindRetry   = "retry"
)

// Report records one result delivered to the scheduler. Failed reports
// carry no loss (the executor observed nothing).
type Report struct {
	Trial  int  `json:"trial"`
	Rung   int  `json:"rung"`
	Failed bool `json:"failed,omitempty"`
	// Loss and TrueLoss are the observed and noiseless validation losses
	// at Resource (zero on failed reports). They travel as IEEE-754 bits,
	// so the NaN or ±Inf a diverged objective reports replays bit-exact.
	Loss     float64 `json:"loss,omitempty"`
	TrueLoss float64 `json:"true,omitempty"`
	Resource float64 `json:"resource,omitempty"`
	// Time is the completion time on the run's clock; resumed runs
	// continue the clock from the journal's maximum.
	Time float64 `json:"time,omitempty"`
}

// TrialSnap is one trial's committed executor state inside a snapshot:
// the cumulative resource it reached and the opaque JSON checkpoint to
// resume it from (the same blob the exec wire's Response.State carries);
// append and recovery both refuse one that is not valid JSON.
type TrialSnap struct {
	Trial    int             `json:"trial"`
	Resource float64         `json:"resource"`
	State    json.RawMessage `json:"state,omitempty"`
}

// Snapshot is a periodic capture of the run counters and of the trials
// whose committed state changed since the previous snapshot record: the
// executor's trial table is the union of every snapshot's Trials, later
// over earlier. Trials that progressed after the latest snapshot resume
// from the checkpoint last snapshotted — the same rollback semantics as a
// worker crash — so snapshot cadence bounds recomputation, not
// correctness.
type Snapshot struct {
	Issued    int     `json:"issued"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed,omitempty"`
	Time      float64 `json:"time,omitempty"`
	// Final marks the clean-shutdown snapshot written when a run ends
	// normally.
	Final  bool        `json:"final,omitempty"`
	Trials []TrialSnap `json:"trials,omitempty"`
}

// Checkpoint is one lane's replay state at a point of its journal: what
// stepping every record before it through a freshly seeded scheduler
// leaves behind, so that a resume restores it and steps only the
// records after it. It holds what the records do not say outright; the
// trial table, the issued pairs, the clock and the first-R time a
// resume folds from the records themselves, all of which it reads.
type Checkpoint struct {
	// Issued, Completed and Failed are the run's job counters, and
	// RungCompleted its successful completions per rung.
	Issued, Completed, Failed int
	RungCompleted             []int
	// Series is the incumbent trajectory.
	Series []metrics.Point
	// InFlight are the issued, unreported jobs in issue order, their
	// configurations laid out against Names.
	Names    []string
	InFlight []Pending
	// Sched is the scheduler's image (core.StateCodec), the rest of the
	// frame. A scanned one aliases the frame where the scanner read it,
	// until its next Scan; a collected one is a copy.
	Sched []byte
}

// Pending is one in-flight job of a checkpoint.
type Pending struct {
	Trial, Rung, Inherit int
	Target               float64
	Vals                 []float64
}

// Record is one journal record: a version plus exactly one payload.
type Record struct {
	V          int         `json:"v"`
	Meta       *Meta       `json:"meta,omitempty"`
	Issue      *Issue      `json:"issue,omitempty"`
	Report     *Report     `json:"report,omitempty"`
	Snap       *Snapshot   `json:"snap,omitempty"`
	Checkpoint *Checkpoint `json:"-"` // `ashactl journal` prints a summary line
}

// Validate checks the record's version and that it carries exactly one
// payload.
func (r *Record) Validate() error {
	if r.V != Version {
		return fmt.Errorf("state: record version %d, this reader speaks %d", r.V, Version)
	}
	n := bit(r.Meta != nil) + bit(r.Issue != nil) + bit(r.Report != nil) + bit(r.Snap != nil) + bit(r.Checkpoint != nil)
	if n != 1 {
		return fmt.Errorf("state: record carries %d payloads, want exactly 1", n)
	}
	return nil
}
