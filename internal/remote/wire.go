package remote

// The JSON lease wire: the one shape /v1/lease and /v1/report speak.
// One /v1/lease poll may grant up to the requested batch of jobs, and
// one /v1/report request may settle a batch of responses — each job
// under its own lease ID, so expiry and exactly-once semantics are per
// job. A single job is a batch of one. Agents lease over the binary
// stream (binwire.go); these shapes are its curl/debug view and the
// agent's report fallback when the stream is down.
//
// The messages carry ProtocolVersion in their "v" field and a mismatch
// aborts at the door. The strict decoders below are the protocol's
// hardening surface (see fuzz_test.go): arbitrary bytes never panic,
// truncated or duplicated batch payloads are rejected cleanly, and
// every message that decodes re-encodes to the identical bytes.

import (
	"encoding/json"
	"fmt"

	"repro/internal/exec"
)

// LeaseGrant hands one leased job to a worker: the lease envelope plus
// the job payload in the shared subprocess wire encoding.
type LeaseGrant struct {
	LeaseID    uint64       `json:"lease"`
	Experiment string       `json:"experiment,omitempty"`
	Job        exec.Request `json:"job"`
	// GrantUnixMs is the server's grant wall-clock time in Unix
	// milliseconds — informational (span timelines, `ashactl trace`),
	// never differenced against a worker clock for a stage duration.
	GrantUnixMs int64 `json:"grantMs,omitempty"`
}

// JobTiming carries one finished job's worker-measured stage durations,
// in microseconds. Every field is a monotonic-clock delta taken on the
// worker (never a difference of wall-clock readings across machines),
// so clock skew between fleet hosts cannot produce negative or inflated
// stages; the server additionally clamps each stage to a sane range at
// settle. Optional end to end: a ReportEntry without a Timing settles
// exactly as before, and the server falls back to its own grant→settle
// measurement for the exec histogram.
type JobTiming struct {
	// DwellUs: grant received by the worker → job dequeued by a slot
	// (wire transit is excluded; this is prefetch-queue dwell).
	DwellUs int64 `json:"dwellUs,omitempty"`
	// ExecUs: objective execution, dequeue → result ready.
	ExecUs int64 `json:"execUs,omitempty"`
	// BufUs: result ready → report flush left the worker.
	BufUs int64 `json:"bufUs,omitempty"`
}

// LeaseBatch is the versioned reply to a lease poll: up to the
// leaseReq's Max jobs, each under its own lease. An empty
// Grants means the long poll timed out with nothing to hand out; Done
// tells the worker the run is over.
type LeaseBatch struct {
	Version int          `json:"v"`
	Grants  []LeaseGrant `json:"grants,omitempty"`
	Done    bool         `json:"done,omitempty"`
}

// ReportEntry pairs one finished job's response with the lease it was
// executed under, plus (optionally) the worker-measured stage timings.
type ReportEntry struct {
	LeaseID  uint64        `json:"lease"`
	Response exec.Response `json:"response"`
	Timing   *JobTiming    `json:"timing,omitempty"`
}

// ReportBatch delivers a batch of finished jobs in one /v1/report
// request. Entries are settled independently: a lease that expired
// mid-flight rejects only its own entry, never the whole batch.
type ReportBatch struct {
	Version  int           `json:"v"`
	Token    string        `json:"token,omitempty"`
	WorkerID string        `json:"worker"`
	Reports  []ReportEntry `json:"reports"`
}

// ReportBatchResult answers a ReportBatch with per-entry acceptance,
// aligned index-for-index with the request's Reports. A false entry
// means that job's lease had already expired (or was never granted):
// the job was requeued server-side and the result discarded, keeping
// delivery exactly-once per job.
type ReportBatchResult struct {
	Version  int    `json:"v"`
	Accepted []bool `json:"accepted"`
}

// DecodeLeaseBatch parses and validates one LeaseBatch: the JSON must
// decode, the version must match, and no lease ID may appear twice —
// a duplicated grant would make one worker run the same job twice.
func DecodeLeaseBatch(data []byte) (LeaseBatch, error) {
	var lb LeaseBatch
	if err := json.Unmarshal(data, &lb); err != nil {
		return LeaseBatch{}, fmt.Errorf("remote: lease batch: %w", err)
	}
	if lb.Version != ProtocolVersion {
		return LeaseBatch{}, fmt.Errorf("remote: lease batch speaks version %d, this side speaks %d", lb.Version, ProtocolVersion)
	}
	seen := make(map[uint64]struct{}, len(lb.Grants))
	for i, g := range lb.Grants {
		if _, dup := seen[g.LeaseID]; dup {
			return LeaseBatch{}, fmt.Errorf("remote: lease batch grants lease %d twice (entry %d)", g.LeaseID, i)
		}
		seen[g.LeaseID] = struct{}{}
	}
	return lb, nil
}

// DecodeReportBatch parses and validates one ReportBatch: the JSON must
// decode, the version must match, the batch must be non-empty, and no
// lease ID may appear twice — a duplicated entry could settle one lease
// with two different results.
func DecodeReportBatch(data []byte) (ReportBatch, error) {
	var rb ReportBatch
	if err := json.Unmarshal(data, &rb); err != nil {
		return ReportBatch{}, fmt.Errorf("remote: report batch: %w", err)
	}
	if err := rb.validate(); err != nil {
		return ReportBatch{}, err
	}
	return rb, nil
}

// validate applies the structural checks to an already-decoded batch.
func (rb *ReportBatch) validate() error {
	if rb.Version != ProtocolVersion {
		return fmt.Errorf("remote: report batch speaks version %d, this side speaks %d", rb.Version, ProtocolVersion)
	}
	if len(rb.Reports) == 0 {
		return fmt.Errorf("remote: report batch carries no reports")
	}
	seen := make(map[uint64]struct{}, len(rb.Reports))
	for i, e := range rb.Reports {
		if _, dup := seen[e.LeaseID]; dup {
			return fmt.Errorf("remote: report batch settles lease %d twice (entry %d)", e.LeaseID, i)
		}
		seen[e.LeaseID] = struct{}{}
	}
	return nil
}
