package exec

// Native fuzz targets. FuzzWireRequest and FuzzWireResponse hold the
// subprocess pipe's one decoder, fed what each end writes: a parent's
// hello, table and job frames, and a worker's result frames. The bytes,
// read frame by frame as Serve and the parent read them, must never
// panic it, and every frame that decodes must re-encode to the identical
// bytes — otherwise a parent and a worker could silently disagree about
// a job. Truncated, empty, oversized and hostile-count frames are among
// the seeds, and TestPipeFrameRefusals pins that each is refused.
//
// Seed corpora live in testdata/fuzz/<FuzzName>/ (committed) plus the
// f.Add calls below. Run with:
//
//	go test ./internal/exec -run '^$' -fuzz FuzzWireRequest -fuzztime 30s

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/wire"
)

func FuzzWireRequest(f *testing.F) {
	job := pipeBytes(pipeFrame{kind: frameJob, job: BinRequest{ID: 5, Trial: 2, To: 4, Vec: []float64{1}}})
	fuzzPipe(f,
		pipeBytes(hello(WireVersion), pipeFrame{kind: frameTable, names: []string{"lr", "momentum"}},
			pipeFrame{kind: frameJob, job: BinRequest{ID: 1, Trial: 3, To: 4, Vec: []float64{1e-3, 0.9}}}),
		pipeBytes(pipeFrame{kind: frameTable, names: []string{"width"}},
			pipeFrame{kind: frameJob, job: BinRequest{ID: 2, Trial: 7, From: 4, To: 16, Vec: []float64{256}, State: []byte(`{"loss":0.5,"w":[1,2,3]}`)}}),
		pipeBytes(hello(WireVersion+1)),
		job[:len(job)-3], // truncated
		[]byte("garbage"),
		wire.AppendUvarint(nil, wire.MaxFrameBody+1), // oversized
		[]byte{2, frameTable, 0x7f},                  // 127 names in no bytes
		append([]byte{20, frameJob, 1, 1}, append(make([]byte, 16), 0x7f)...), // 127 values in no bytes
		[]byte{0}, // empty
	)
}

func FuzzWireResponse(f *testing.F) {
	result := pipeBytes(pipeFrame{kind: frameResult, result: BinResponse{ID: 9, Loss: 1, State: []byte(`{"nested":{"a":[1]}}`)}})
	fuzzPipe(f,
		pipeBytes(pipeFrame{kind: frameResult, result: BinResponse{ID: 1, Loss: 0.25}}),
		pipeBytes(pipeFrame{kind: frameResult, result: BinResponse{ID: 2, Loss: 1.5, State: []byte(`{"epoch":16}`)}}),
		pipeBytes(pipeFrame{kind: frameResult, result: BinResponse{ID: 3, IsErr: true, Err: "objective exploded"}}),
		result[:len(result)-5], // truncated
		[]byte("[]"),
	)
}

// fuzzPipe reads the fuzzed bytes as the pipe does, frame by frame, and
// checks that each frame that decodes re-encodes to its own bytes.
func fuzzPipe(f *testing.F, seeds ...[]byte) {
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var fr pipeFrame
		for {
			body, err := wire.ReadFrame(br, nil)
			if err != nil || decodePipeFrame(body, &fr) != nil {
				return // the pipe is dead: both ends stop at the first bad frame
			}
			if again := appendPipeFrame(nil, &fr); !bytes.Equal(again, body) {
				t.Fatalf("frame does not re-encode to its bytes:\n %x\n %x", body, again)
			}
		}
	})
}

// nearNumbers are what strconv.ParseFloat parses and JSON refuses.
var nearNumbers = []string{"01", "00", "1.", "-.5", "1.e5", "-0."}

// FuzzJSONNumber holds the bare-number checks to encoding/json: what
// wire.JSONNumber accepts json.Valid accepts, and a value json.Valid
// accepts that opens with a sign or digit and ends with a digit — a
// number with no space around it — JSONNumber accepts too; wire.ValidJSON,
// the journal's checkpoint check, is json.Valid; and on what the grammar
// accepts, parseNumberState returns the bits json.Unmarshal gives, or
// both refuse (beyond float64's range).
func FuzzJSONNumber(f *testing.F) {
	for _, s := range append(nearNumbers, "-0", "0e0", "1E+5", "1e400", " 1", "1 ", "\t-0.5\n", "", "0.30000000000000004", "-1.5e-07", `{"w":[1]}`) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		valid, number := json.Valid(b), wire.JSONNumber(b)
		switch {
		case number && !valid:
			t.Fatalf("%q: the number grammar accepts what json.Valid refuses", b)
		case valid && !number && len(b) > 0 && (b[0] == '-' || b[0] >= '0' && b[0] <= '9') && b[len(b)-1] >= '0' && b[len(b)-1] <= '9':
			t.Fatalf("%q: the number grammar refuses a number json.Valid accepts", b)
		case wire.ValidJSON(b) != valid:
			t.Fatalf("%q: ValidJSON says %v, json.Valid %v", b, !valid, valid)
		case !number:
			return
		}
		var want interface{}
		err := json.Unmarshal(b, &want)
		got, ok := parseNumberState(b)
		if ok != (err == nil) {
			t.Fatalf("%q: fast decode ok=%v, json.Unmarshal: %v", b, ok, err)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want.(float64)) {
			t.Fatalf("%q: fast decode %v, json.Unmarshal %v", b, got, want)
		}
	})
}
