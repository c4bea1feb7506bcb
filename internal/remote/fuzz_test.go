package remote

// Native fuzz target for a report batch as the fallback POSTs it: the
// JSON envelope {v, token, worker, frame} sent to /v1/report, driven
// through the server's own handler. Arbitrary bytes must never panic it
// or settle a job (the server has granted no lease); every answer is a
// 200, a 400 or a 413; and a 200 comes only for a body whose frame
// decodes as a reports frame, carrying the ack of exactly that frame —
// its sequence number, one rejected entry per report.
//
// Its seed corpus lives in testdata/fuzz/FuzzReportBatch/ (committed)
// plus the f.Add calls below. Run with:
//
//	go test ./internal/remote -fuzz FuzzReportBatch -fuzztime 30s

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/exec"
	"repro/internal/wire"
)

// reportBatchSeeds are FuzzReportBatch's seed bodies, one per shape the
// handler tells apart.
func reportBatchSeeds() [][]byte {
	envelope := func(req streamReq) []byte {
		blob, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		return blob
	}
	return [][]byte{
		envelope(streamReq{Version: ProtocolVersion, WorkerID: "w1", Frame: appendReports(nil, binReports{Seq: 1,
			Reports: []exec.BinResponse{{ID: 1, Loss: 0.25}, {ID: 2, Loss: 1.5, State: []byte(`{"epoch":16}`)},
				{ID: 3, IsErr: true, Err: "objective exploded"}},
			Timings: []JobTiming{{DwellUs: 10, ExecUs: 2000, BufUs: 5}, {ExecUs: 7}, {}}})}),
		envelope(streamReq{Version: ProtocolVersion, Token: "secret", WorkerID: "w2", Frame: reportOne(9, 0.125)}),
		envelope(streamReq{Version: ProtocolVersion + 1, WorkerID: "w3", Frame: reportOne(9, 0.125)}),          // another version
		envelope(streamReq{Version: ProtocolVersion, WorkerID: "w1", Frame: appendReports(nil, binReports{})}), // no entries
		envelope(streamReq{Version: ProtocolVersion, WorkerID: "w1", Frame: appendReports(nil, binReports{ // duplicated lease
			Reports: []exec.BinResponse{{ID: 4}, {ID: 4}}})}),
		[]byte(`{"v":2,"worker":"w1","frame":"BAEB`), // truncated
		[]byte(`[]`),
	}
}

func FuzzReportBatch(f *testing.F) {
	srv, err := NewServer(Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })
	h := srv.hs.Handler
	for _, seed := range reportBatchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(data)))
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("answered %d: %s", w.Code, w.Body.Bytes())
		}
		var req streamReq
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			t.Fatalf("answered 200 to a body that does not decode: %v", err)
		}
		if req.Version != ProtocolVersion {
			t.Fatalf("answered 200 to version %d", req.Version)
		}
		if len(req.Frame) == 0 || req.Frame[0] != frameReports {
			t.Fatalf("answered 200 to a frame of type % x", req.Frame[:min(1, len(req.Frame))])
		}
		rb, err := decodeReports(wire.NewReader(req.Frame[1:]))
		if err != nil {
			t.Fatalf("answered 200 to a reports frame that does not decode: %v", err)
		}
		var resp frameResp
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("answer does not decode: %v", err)
		}
		v, err := decodeAnyFrame(resp.Frame)
		ack, ok := v.(binReportAck)
		if err != nil || !ok {
			t.Fatalf("answer carries %T, not a report ack: %v", v, err)
		}
		if ack.Seq != rb.Seq || len(ack.Accepted) != len(rb.Reports) {
			t.Fatalf("ack seq %d of %d entries answers seq %d of %d", ack.Seq, len(ack.Accepted), rb.Seq, len(rb.Reports))
		}
		for i, ok := range ack.Accepted {
			if ok {
				t.Fatalf("entry %d (lease %d) accepted with no lease granted", i, rb.Reports[i].ID)
			}
		}
		if c := srv.Counters(); c.Accepted != 0 {
			t.Fatalf("%d entries settled with no lease granted", c.Accepted)
		}
	})
}
