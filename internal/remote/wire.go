package remote

// The JSON report wire: the one shape /v1/report speaks. One request
// settles a batch of responses, each job under its own lease ID, so
// expiry and exactly-once semantics are per job. Agents lease and
// report over the binary stream (binwire.go); this shape is the
// agent's report fallback when the stream is down, and the path that
// re-delivers report frames the stream never acknowledged.
//
// The messages carry ProtocolVersion in their "v" field and a mismatch
// aborts at the door. The strict decoder below is part of the
// protocol's hardening surface (see fuzz_test.go): arbitrary bytes
// never panic, truncated or duplicated batch payloads are rejected
// cleanly, and every message that decodes re-encodes to the identical
// bytes.

import (
	"encoding/json"
	"fmt"

	"repro/internal/exec"
)

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
