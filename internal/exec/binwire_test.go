package exec

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// TestBinRequestRoundTrip pins the dense job encoding: every field
// survives, the vector resolves against the name table into the config
// the objective is handed, and NaN/Inf losses round-trip
// bit-exactly (the varint+IEEE encoding never perturbs a value the way
// a decimal representation could).
func TestBinRequestRoundTrip(t *testing.T) {
	names := []string{"lr", "momentum", "width"}
	q := BinRequest{
		ID:    1<<40 | 17,
		Trial: 123,
		From:  4,
		To:    16,
		Vec:   []float64{1e-3, 0.9, 256},
		State: []byte(`{"epoch":4,"w":[1,2,3]}`),
	}
	blob := AppendBinRequest(nil, q)
	r := NewWireReader(blob)
	back := DecodeBinRequest(r)
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, back) {
		t.Fatalf("round trip changed the request:\n %+v\n %+v", q, back)
	}
	cfg := new(Slot).Config(names, back.Vec)
	if want := map[string]float64{"lr": 1e-3, "momentum": 0.9, "width": 256}; !reflect.DeepEqual(cfg, want) {
		t.Fatalf("vector resolved wrong:\n %+v\n %+v", cfg, want)
	}
}

func TestBinResponseRoundTrip(t *testing.T) {
	cases := []BinResponse{
		{ID: 7, Loss: 0.125, State: []byte(`{"epoch":16}`)},
		{ID: 9, Loss: math.Inf(1)},
		{ID: 11, IsErr: true, Err: "objective exploded"},
		{ID: 13}, // zero loss, no checkpoint
	}
	for _, p := range cases {
		blob := AppendBinResponse(nil, p)
		r := NewWireReader(blob)
		back := DecodeBinResponse(r)
		r.ExpectEOF()
		if err := r.Err(); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip changed the response:\n %+v\n %+v", p, back)
		}
	}
	// A NaN loss survives bit-exactly even though NaN != NaN.
	p := BinResponse{ID: 1, Loss: math.NaN()}
	r := NewWireReader(AppendBinResponse(nil, p))
	back := DecodeBinResponse(r)
	if r.Err() != nil || math.Float64bits(back.Loss) != math.Float64bits(p.Loss) {
		t.Fatalf("NaN loss perturbed: %x -> %x", math.Float64bits(p.Loss), math.Float64bits(back.Loss))
	}
}

// TestWireReaderRejects pins the cursor's hardening: truncation,
// hostile counts and trailing bytes latch errors instead of panicking
// or allocating, and reads after an error return zero values.
func TestWireReaderRejects(t *testing.T) {
	// A float vector claiming more elements than bytes remain.
	blob := wire.AppendUvarint(nil, 1<<40)
	r := NewWireReader(blob)
	if v := r.Float64s(); v != nil || r.Err() == nil {
		t.Fatalf("hostile vector count accepted: %v, err %v", v, r.Err())
	}
	// Reads after the latch return zeros, and the first error sticks.
	first := r.Err()
	if b := r.Byte(); b != 0 || r.Err() != first {
		t.Fatal("error did not latch")
	}
	// A byte string running past the end.
	r = NewWireReader(wire.AppendUvarint(nil, 100))
	if b := r.Bytes(); b != nil || r.Err() == nil {
		t.Fatal("truncated byte string accepted")
	}
	// Trailing garbage after a complete message.
	blob = AppendBinResponse(nil, BinResponse{ID: 1, Loss: 1})
	r = NewWireReader(append(blob, 0xff))
	DecodeBinResponse(r)
	r.ExpectEOF()
	if r.Err() == nil {
		t.Fatal("trailing bytes accepted")
	}
	// An unknown response kind byte.
	r = NewWireReader([]byte{0x01, 0x07})
	DecodeBinResponse(r)
	if r.Err() == nil {
		t.Fatal("unknown response kind accepted")
	}
}

// TestPipeFrameRefusals: the pipe's reader refuses a truncated, empty
// or oversized frame and its decoder a frame of an unknown type, with
// trailing bytes, or with a name or value count its bytes cannot hold —
// each whole, before allocating for the count.
func TestPipeFrameRefusals(t *testing.T) {
	job := pipeBytes(pipeFrame{kind: frameJob, job: BinRequest{ID: 1, To: 2, Vec: []float64{1}}})
	for name, pipe := range map[string][]byte{
		"truncated": job[:len(job)-1],
		"empty":     {0},
		"oversized": wire.AppendUvarint(nil, wire.MaxFrameBody+1),
	} {
		if body, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(pipe)), nil); err == nil {
			t.Errorf("%s frame read as %x", name, body)
		}
	}
	for name, body := range map[string][]byte{
		"unknown type":       {0x7f},
		"trailing bytes":     {frameHello, WireVersion, 0},
		"hostile name count": wire.AppendUvarint([]byte{frameTable}, 1<<40),
		"hostile vec count":  wire.AppendUvarint(append([]byte{frameJob, 1, 1}, make([]byte, 16)...), 1<<40),
	} {
		var f pipeFrame
		if err := decodePipeFrame(body, &f); err == nil {
			t.Errorf("%s decoded as %+v", name, f)
		} else if f.names != nil || f.job.Vec != nil {
			t.Errorf("%s allocated for its count", name)
		}
	}
}
