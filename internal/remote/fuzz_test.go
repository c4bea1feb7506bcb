package remote

// Native fuzz target for the JSON report wire (ReportBatch, wire.go):
// arbitrary bytes must never panic the strict decoder, truncated or
// duplicated batch payloads must be rejected cleanly (an error, not a
// partial batch), and any batch that decodes must re-encode and
// re-decode to the identical message — otherwise a server and a worker
// could silently disagree about which jobs a round trip settled.
//
// Its seed corpus lives in testdata/fuzz/FuzzReportBatch/ (committed)
// plus the f.Add calls below. Run with:
//
//	go test ./internal/remote -fuzz FuzzReportBatch -fuzztime 30s

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/exec"
)

func FuzzReportBatch(f *testing.F) {
	add := func(rb ReportBatch) {
		blob, err := json.Marshal(&rb)
		if err != nil {
			panic(err)
		}
		f.Add(blob)
	}
	add(ReportBatch{Version: ProtocolVersion, WorkerID: "w1", Reports: []ReportEntry{
		{LeaseID: 1, Response: exec.Response{Version: exec.WireVersion, ID: 1, Loss: 0.25}},
		{LeaseID: 2, Response: exec.Response{Version: exec.WireVersion, ID: 2, Loss: 1.5,
			State: json.RawMessage(`{"epoch":16}`)}},
		{LeaseID: 3, Response: exec.Response{Version: exec.WireVersion, ID: 3, Error: "objective exploded"}},
	}})
	add(ReportBatch{Version: ProtocolVersion, Token: "secret", WorkerID: "w2", Reports: []ReportEntry{
		{LeaseID: 9, Response: exec.Response{Version: exec.WireVersion, ID: 9, Loss: 0.125}},
	}})
	add(ReportBatch{Version: ProtocolVersion + 1, WorkerID: "w3"})
	f.Add([]byte(`{"v":2,"worker":"w1","reports":[]}`))                                                                            // empty batch: rejected
	f.Add([]byte(`{"v":2,"worker":"w1","reports":[{"lease":4,"response":{"v":1,"id":4}},{"lease":4,"response":{"v":1,"id":4}}]}`)) // duplicated lease
	f.Add([]byte(`{"v":2,"worker":"w1","reports":[{"lease":4,"response":{"v":1,`))                                                 // truncated
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rb, err := DecodeReportBatch(data)
		if err != nil {
			return
		}
		if rb.Version != ProtocolVersion {
			t.Fatalf("decoder accepted version %d", rb.Version)
		}
		if len(rb.Reports) == 0 {
			t.Fatal("decoder accepted an empty report batch")
		}
		seen := make(map[uint64]bool, len(rb.Reports))
		for _, e := range rb.Reports {
			if seen[e.LeaseID] {
				t.Fatalf("decoder accepted a duplicated lease %d", e.LeaseID)
			}
			seen[e.LeaseID] = true
		}
		blob, err := json.Marshal(&rb)
		if err != nil {
			t.Fatalf("decoded report batch failed to re-encode: %v", err)
		}
		back, err := DecodeReportBatch(blob)
		if err != nil {
			t.Fatalf("re-encoded report batch failed to decode: %v", err)
		}
		blob2, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("report batch encoding not stable:\n %s\n %s", blob, blob2)
		}
	})
}
