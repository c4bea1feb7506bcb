package remote

// Tests that pin the worker protocol as one thing with one number: the
// bytes of every frame role, and the refusal — by name, at the door —
// of everything protocol version 1 spoke.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/wire"
)

// TestFrameGolden pins one frame of every role to committed bytes. The
// reports, heartbeat and grants goldens were produced by protocol
// version 1's timed encoders (the frames a fleet actually exchanged),
// so the layout is checked unchanged, not asserted unchanged.
func TestFrameGolden(t *testing.T) {
	reports := []exec.BinResponse{
		{ID: 1000001, Loss: 0.25, State: []byte(`{"s":1}`)},
		{ID: 1000002, IsErr: true, Err: "boom"},
	}
	for _, tc := range []struct {
		role   string
		frame  []byte
		golden string
	}{
		{"lease", appendLeaseReq(nil, binLeaseReq{Seq: 7, Max: 4, WaitMillis: 15000, Experiments: []string{"a/exp"}}),
			"01070498750105612f657870"},
		{"reports", appendReports(nil, binReports{Seq: 9, Reports: reports,
			Timings: []JobTiming{{DwellUs: 120, ExecUs: 3400, BufUs: 56}, {ExecUs: 7}}}),
			"040902c1843d00000000000000d03f077b2273223a317d78c81a38c2843d0104626f6f6d000700"},
		{"heartbeat", appendHeartbeat(nil, binHeartbeat{RttUs: 321, Leases: []uint64{1000001, 1000002}}),
			"05c10202c1843dc2843d"},
		{"grants", appendGrants(nil, binGrants{Seq: 7,
			Tables: []binTable{{Index: 0, Experiment: "a/exp", Params: []string{"lr", "momentum"}}},
			Grants: []binGrant{{Table: 0, Job: exec.BinRequest{ID: 1000001, Trial: 3, From: 1, To: 2,
				Vec: []float64{0.01, 0.9}, State: []byte(`{"s":1}`)}, GrantMs: 1754560000000}}}),
			"840700010005612f65787002026c72086d6f6d656e74756d0100c1843d03000000000000f03f0000000000000040" +
				"027b14ae47e17a843fcdccccccccccec3f077b2273223a317d80e0b39f8833"},
		{"grants-done", appendGrants(nil, binGrants{Seq: 8, Done: true}), "8408010000"},
		{"report-ack", appendReportAck(nil, binReportAck{Seq: 9,
			Accepted: []bool{true, false, true, true, false, false, false, true, true}}),
			"8209098d01"},
		{"heartbeat-ack", appendHeartbeatAck(nil, []uint64{1000002}), "8301c2843d"},
	} {
		if got := hex.EncodeToString(tc.frame); got != tc.golden {
			t.Errorf("%s frame encodes as\n %s\nwant\n %s", tc.role, got, tc.golden)
		}
		v, err := decodeAnyFrame(tc.frame)
		if err != nil {
			t.Errorf("%s golden does not decode: %v", tc.role, err)
			continue
		}
		if back := reencodeFrame(v); !bytes.Equal(back, tc.frame) {
			t.Errorf("%s golden re-encodes as % x", tc.role, back)
		}
	}
	for _, frame := range retiredFrames() {
		if v, err := decodeAnyFrame(frame); err == nil {
			t.Errorf("retired frame type 0x%02x decoded as %T", frame[0], v)
		}
	}
}

// namesBothVersions reports whether a refusal names the version it was
// offered and the one the server speaks.
func namesBothVersions(body map[string]interface{}) bool {
	msg, _ := body["error"].(string)
	return strings.Contains(msg, "protocol version 1 not supported") &&
		strings.Contains(msg, fmt.Sprintf("speaks %d", ProtocolVersion))
}

// TestEarlierGenerationsRefusedByName proves nothing of protocol
// version 1 still works by accident: a "v":1 registration or stream
// handshake is refused with both versions named and no worker ID
// assigned, on the lease server and on the coordinator; the JSON lease
// poll is gone (404); a single-report body and a retired frame type —
// on the stream or POSTed — settle nothing.
func TestEarlierGenerationsRefusedByName(t *testing.T) {
	srv, err := NewServer(Options{BatchSize: 4, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	outcomes := make(chan Outcome, 2)
	for i := 0; i < 2; i++ {
		srv.Submit(JobPayload{Trial: i, To: 2}, func(o Outcome) { outcomes <- o })
	}

	status, body := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": 1, "name": "old"})
	if status != http.StatusBadRequest || !namesBothVersions(body) || body["worker"] != nil {
		t.Fatalf("v1 registration: %d %v, want 400 naming both versions and no worker", status, body)
	}
	if n := srv.Counters().Registered; n != 0 {
		t.Fatalf("a refused registration counted %d workers", n)
	}
	status, body = rawPost(t, srv.URL(), "/v1/stream", map[string]interface{}{"v": 1, "worker": "w1"})
	if status != http.StatusBadRequest || !namesBothVersions(body) {
		t.Fatalf("v1 stream handshake: %d %v, want 400 naming both versions", status, body)
	}

	c, err := NewCoordinator(CoordinatorOptions{Shards: []string{"s1"}, ShardTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	status, body = rawPost(t, c.URL(), "/v1/register", map[string]interface{}{"v": 1})
	if status != http.StatusBadRequest || !namesBothVersions(body) || body["worker"] != nil || body["redirect"] != nil {
		t.Fatalf("v1 registration at the coordinator: %d %v, want 400 naming both versions", status, body)
	}

	// Jobs are leased over the stream only: the JSON poll is not served.
	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion})
	worker := reg["worker"].(string)
	if status, body := rawPost(t, srv.URL(), "/v1/lease",
		map[string]interface{}{"v": ProtocolVersion, "worker": worker, "waitMs": 2000, "max": 1}); status != http.StatusNotFound {
		t.Fatalf("JSON lease poll: %d %v, want 404", status, body)
	}
	_, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 1, WaitMillis: 2000})
	if len(g.Grants) != 1 {
		t.Fatalf("stream lease poll: %+v, want one grant", g)
	}
	id := g.Grants[0].Job.ID

	// The single-report body carries no frame.
	status, body = rawPost(t, srv.URL(), "/v1/report", map[string]interface{}{
		"v": ProtocolVersion, "worker": worker, "lease": id,
		"response": map[string]interface{}{"v": 1, "id": id, "loss": 0.5},
	})
	if msg, _ := body["error"].(string); status != http.StatusBadRequest || !strings.Contains(msg, "carries one frame") {
		t.Fatalf("single-report body: %d %v, want 400 carries one frame", status, body)
	}
	for _, frame := range retiredFrames() {
		for _, path := range []string{"/v1/report", "/v1/heartbeat"} {
			if status, msg := postFrame(t, srv.URL(), path, "", worker, frame); status != http.StatusBadRequest {
				t.Fatalf("retired frame type 0x%02x POSTed to %s: %d %v, want 400", frame[0], path, status, msg)
			}
		}
	}

	// A retired frame type kills the stream it arrives on.
	conn, br := streamDial(t, srv.URL(), worker)
	defer conn.Close()
	sendFrame(t, conn, append([]byte{0x02, 0x01, 0x01},
		exec.AppendBinResponse(nil, exec.BinResponse{ID: id, Loss: 0.5})...))
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if frame, err := wire.ReadFrame(br, nil); err == nil {
		t.Fatalf("retired reports frame was answered with frame type 0x%02x", frame[0])
	}

	select {
	case o := <-outcomes:
		t.Fatalf("a refused shape settled a job: %+v", o)
	case <-time.After(100 * time.Millisecond):
	}
	// The lease survived all of it: the one report shape settles it.
	status, ack := postFrame(t, srv.URL(), "/v1/report", "", worker, reportOne(id, 0.5))
	if status != http.StatusOK || acceptedOne(ack) != true {
		t.Fatalf("well-formed report after the refusals: %d %v", status, ack)
	}
	if o := <-outcomes; o.Failed || o.Loss != 0.5 {
		t.Fatalf("job settled wrong: %+v", o)
	}
}
