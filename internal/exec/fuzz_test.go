package exec

// Native fuzz targets for the shared job wire (the subprocess protocol's
// Request/Response, reused verbatim by the remote lease protocol and as
// the encoding discipline of the state journal): arbitrary bytes must
// never panic a decoder, and any message that decodes must re-encode and
// re-decode to the identical message — otherwise a parent and a worker
// could silently disagree about a job.
//
// Seed corpora live in testdata/fuzz/<FuzzName>/ (committed) plus the
// f.Add calls below. Run with:
//
//	go test ./internal/exec -fuzz FuzzWireRequest -fuzztime 30s

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/wire"
)

func FuzzWireRequest(f *testing.F) {
	add := func(req Request) {
		blob, err := json.Marshal(&req)
		if err != nil {
			panic(err)
		}
		f.Add(blob)
	}
	add(Request{Version: WireVersion, ID: 1, Trial: 3,
		Config: map[string]float64{"lr": 1e-3, "momentum": 0.9}, From: 0, To: 4})
	add(Request{Version: WireVersion, ID: 2, Trial: 7,
		Config: map[string]float64{"width": 256}, From: 4, To: 16,
		State: json.RawMessage(`{"loss":0.5,"w":[1,2,3]}`)})
	add(Request{Version: WireVersion + 1})
	f.Add([]byte(`{"v":1,"id":1,"trial":`)) // truncated
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		blob, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("decoded request failed to re-encode: %v", err)
		}
		var back Request
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		blob2, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("request encoding not stable:\n %s\n %s", blob, blob2)
		}
	})
}

func FuzzWireResponse(f *testing.F) {
	add := func(resp Response) {
		blob, err := json.Marshal(&resp)
		if err != nil {
			panic(err)
		}
		f.Add(blob)
	}
	add(Response{Version: WireVersion, ID: 1, Loss: 0.25})
	add(Response{Version: WireVersion, ID: 2, Loss: 1.5, State: json.RawMessage(`{"epoch":16}`)})
	add(Response{Version: WireVersion, ID: 3, Error: "objective exploded"})
	f.Add([]byte(`{"v":1,"id":9,"state":{"nested":{"a":[`)) // truncated
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if err := json.Unmarshal(data, &resp); err != nil {
			return
		}
		blob, err := json.Marshal(&resp)
		if err != nil {
			t.Fatalf("decoded response failed to re-encode: %v", err)
		}
		var back Response
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("re-encoded response failed to decode: %v", err)
		}
		blob2, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("response encoding not stable:\n %s\n %s", blob, blob2)
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
