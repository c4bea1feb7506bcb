package exec

// Round-trip tests for the subprocess JSON boundary: the scheduler hot
// path runs on vector-backed configurations, but the wire protocol must
// stay name-keyed so worker processes never need the parent's
// parameter-index table.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/searchspace"
	"repro/internal/xrand"
)

func wireSpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "lr", Type: searchspace.LogUniform, Lo: 1e-4, Hi: 1},
		searchspace.Param{Name: "momentum", Type: searchspace.Uniform, Lo: 0, Hi: 1},
		searchspace.Param{Name: "layers", Type: searchspace.IntUniform, Lo: 1, Hi: 8},
	)
}

// TestRequestConfigStaysNameKeyed pins the wire format: a Request's
// config marshals as a JSON object keyed by parameter name, with values
// bit-identical to the vector representation.
func TestRequestConfigStaysNameKeyed(t *testing.T) {
	space := wireSpace()
	cfg := space.Sample(xrand.New(7))
	req := Request{Version: WireVersion, ID: 3, Trial: 9, Config: cfg.Map(), From: 1, To: 4}
	blob, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"lr":`) {
		t.Fatalf("wire request lost name keys: %s", blob)
	}
	var back Request
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !cfg.Equal(space.FromMap(back.Config)) {
		t.Fatalf("config round trip: got %v, want %v", back.Config, cfg)
	}
	if back.Version != WireVersion {
		t.Fatalf("wire version round trip: got %d, want %d", back.Version, WireVersion)
	}
}

// TestWireVersionRoundTrips pins the version field's JSON name: both
// sides of the subprocess and remote protocols key it as "v", and a
// response carries the worker's version back.
func TestWireVersionRoundTrips(t *testing.T) {
	blob, err := json.Marshal(&Request{Version: WireVersion, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"v":1`) {
		t.Fatalf(`wire request lost the "v" version field: %s`, blob)
	}
	resp, err := new(Slot).RunJob(context.Background(), func(context.Context, map[string]float64, float64, float64, interface{}) (float64, interface{}, error) {
		return 0.5, nil, nil
	}, Request{Version: WireVersion, ID: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != WireVersion {
		t.Fatalf("response version %d, want %d", resp.Version, WireVersion)
	}
}

// TestSubprocessVersionMismatchAbortsRun pins the parent side of the
// version handshake: a worker that answers coherently but with a
// different wire version is a deterministic protocol mismatch, so the
// job must come back with a fatal error (aborting the run) rather than
// a retryable crash — retrying would relaunch the same binary forever.
func TestSubprocessVersionMismatchAbortsRun(t *testing.T) {
	// A fake worker that reads one request line and answers with a
	// mismatched version but the right ID.
	script := `read line; echo '{"v":99,"id":1,"loss":0.5}'; read rest`
	s, err := NewSubprocess(context.Background(), "sh", []string{"-c", script}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	space := wireSpace()
	s.Launch(core.Job{TrialID: 1, Config: space.Sample(xrand.New(3)), TargetResource: 2, InheritFrom: -1})
	batch, err := s.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 {
		t.Fatalf("got %d completions, want 1", len(batch))
	}
	c := batch[0]
	if c.Failed {
		t.Fatal("version mismatch was classified as a retryable crash")
	}
	if c.Err == nil || !strings.Contains(c.Err.Error(), "wire version") {
		t.Fatalf("want a fatal wire-version error, got %v", c.Err)
	}
}

// TestWireVersionMismatchRejected proves a worker refuses to execute a
// job from a peer speaking a different wire version, both through
// RunJob (the remote agent's path) and through Serve (the subprocess
// path, where the protocol error ends the worker so the parent sees a
// crash instead of a silently misinterpreted job).
func TestWireVersionMismatchRejected(t *testing.T) {
	called := false
	obj := func(context.Context, map[string]float64, float64, float64, interface{}) (float64, interface{}, error) {
		called = true
		return 0, nil, nil
	}
	if _, err := new(Slot).RunJob(context.Background(), obj, Request{Version: WireVersion + 1, ID: 1}, nil); err == nil {
		t.Fatal("RunJob accepted a mismatched wire version")
	}
	var in, out bytes.Buffer
	if err := json.NewEncoder(&in).Encode(Request{Version: WireVersion + 1, ID: 1}); err != nil {
		t.Fatal(err)
	}
	err := Serve(context.Background(), &in, &out, obj)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("Serve accepted a mismatched wire version: %v", err)
	}
	if called {
		t.Fatal("objective ran despite the version mismatch")
	}
	// The worker must answer (with its own version and an error) before
	// exiting: a silent exit would look like a crash to the parent and
	// spin the relaunch/retry loop instead of aborting the run.
	var resp Response
	if err := json.NewDecoder(&out).Decode(&resp); err != nil {
		t.Fatalf("worker exited without answering the mismatched request: %v", err)
	}
	if resp.ID != 1 || resp.Version != WireVersion || resp.Error == "" {
		t.Fatalf("mismatch answer should carry the worker's version and an error: %+v", resp)
	}
}

// TestServeRoundTripsVectorConfig drives the worker side of the protocol
// in-memory: the objective must observe exactly the values the parent's
// vector config held, and the response must carry the loss back.
func TestServeRoundTripsVectorConfig(t *testing.T) {
	space := wireSpace()
	cfg := space.Sample(xrand.New(11))

	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for id := 1; id <= 2; id++ {
		if err := enc.Encode(Request{Version: WireVersion, ID: id, Trial: id, Config: cfg.Map(), From: 0, To: 2}); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	obj := func(_ context.Context, got map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
		if !cfg.Equal(space.FromMap(got)) {
			t.Errorf("objective saw %v, want %v", got, cfg)
		}
		return got["lr"] + got["momentum"], nil, nil
	}
	if err := Serve(context.Background(), &in, &out, obj); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	want := cfg.Get("lr") + cfg.Get("momentum")
	for id := 1; id <= 2; id++ {
		var resp Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != id || resp.Error != "" || resp.Loss != want {
			t.Fatalf("response %d: %+v, want loss %v", id, resp, want)
		}
	}
}
