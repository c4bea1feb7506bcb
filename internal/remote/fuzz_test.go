package remote

// Native fuzz targets for the batched lease wire (LeaseBatch and
// ReportBatch, wire.go): arbitrary bytes must never panic the strict
// decoders, truncated or duplicated batch payloads must be rejected
// cleanly (an error, not a partial batch), and any batch that decodes
// must re-encode and re-decode to the identical message — otherwise a
// server and a worker could silently disagree about which jobs a round
// trip moved.
//
// Seed corpora live in testdata/fuzz/<FuzzName>/ (committed) plus the
// f.Add calls below. Run with:
//
//	go test ./internal/remote -fuzz FuzzLeaseBatch -fuzztime 30s
//	go test ./internal/remote -fuzz FuzzReportBatch -fuzztime 30s

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/exec"
)

func FuzzLeaseBatch(f *testing.F) {
	add := func(lb LeaseBatch) {
		blob, err := json.Marshal(&lb)
		if err != nil {
			panic(err)
		}
		f.Add(blob)
	}
	add(LeaseBatch{Version: ProtocolVersion, Grants: []LeaseGrant{
		{LeaseID: 1, Job: exec.Request{Version: exec.WireVersion, ID: 1, Trial: 3,
			Config: map[string]float64{"lr": 1e-3, "momentum": 0.9}, From: 0, To: 4}},
		{LeaseID: 2, Experiment: "cifar-asha", Job: exec.Request{Version: exec.WireVersion, ID: 2, Trial: 7,
			Config: map[string]float64{"width": 256}, From: 4, To: 16,
			State: json.RawMessage(`{"loss":0.5,"w":[1,2,3]}`)}},
	}})
	add(LeaseBatch{Version: ProtocolVersion, Done: true})
	add(LeaseBatch{Version: ProtocolVersion + 3})
	f.Add([]byte(`{"v":2,"grants":[{"lease":5,"job":{"v":1,"id":5}},{"lease":5,"job":{"v":1,"id":5}}]}`)) // duplicated lease
	f.Add([]byte(`{"v":2,"grants":[{"lease":1,"job":{"v":1,`))                                            // truncated
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		lb, err := DecodeLeaseBatch(data)
		if err != nil {
			return
		}
		if lb.Version != ProtocolVersion {
			t.Fatalf("decoder accepted version %d", lb.Version)
		}
		seen := make(map[uint64]bool, len(lb.Grants))
		for _, g := range lb.Grants {
			if seen[g.LeaseID] {
				t.Fatalf("decoder accepted a duplicated lease %d", g.LeaseID)
			}
			seen[g.LeaseID] = true
		}
		blob, err := json.Marshal(&lb)
		if err != nil {
			t.Fatalf("decoded lease batch failed to re-encode: %v", err)
		}
		back, err := DecodeLeaseBatch(blob)
		if err != nil {
			t.Fatalf("re-encoded lease batch failed to decode: %v", err)
		}
		blob2, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("lease batch encoding not stable:\n %s\n %s", blob, blob2)
		}
	})
}

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
