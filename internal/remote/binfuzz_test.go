package remote

// Native fuzz targets for the binary worker wire (binwire.go), the one
// decoder of every frame on the stream and on the /v1/report and
// /v1/heartbeat fallback: arbitrary bytes must never panic a frame
// decoder, truncated/duplicated/oversized frames must be rejected whole
// (an error, never a partial message), and any frame that decodes must
// re-encode and re-decode stably — otherwise a server and a worker could
// silently disagree about which jobs a frame moved. Byte-identity is asserted between the first and second
// re-encoding (not against the fuzz input, which may spell varints
// non-minimally).
//
// Seed corpora live in testdata/fuzz/<FuzzName>/ (committed) plus the
// f.Add calls below. Run with:
//
//	go test ./internal/remote -fuzz FuzzBinaryFrame -fuzztime 30s
//	go test ./internal/remote -fuzz FuzzBinaryLeaseBatch -fuzztime 30s

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/wire"
)

// reencodeFrame re-encodes a decodeAnyFrame result.
func reencodeFrame(v interface{}) []byte {
	switch m := v.(type) {
	case binLeaseReq:
		return appendLeaseReq(nil, m)
	case binGrants:
		return appendGrants(nil, m)
	case binReports:
		return appendReports(nil, m)
	case binReportAck:
		return appendReportAck(nil, m)
	case binHeartbeat:
		return appendHeartbeat(nil, m)
	case []uint64:
		return appendHeartbeatAck(nil, m)
	}
	return nil
}

// retiredFrames is one frame of each type byte protocol version 1
// spoke and version 2 retired (untimed reports 0x02, heartbeat 0x03,
// grants 0x81), bodies exactly as a version-1 peer encoded them.
func retiredFrames() [][]byte {
	return [][]byte{
		append([]byte{0x02, 0x03, 0x01}, exec.AppendBinResponse(nil, exec.BinResponse{ID: 101, Loss: 0.25})...),
		{0x03, 0x02, 0x65, 0x66},
		{0x81, 0x09, 0x01, 0x00, 0x00},
	}
}

// reportsOf and grantsOf build a frame's worth of minimal entries under
// the given lease IDs, in that order (the grants against a table the
// frame defines itself, so the frame stands alone).
func reportsOf(ids []uint64) binReports {
	var rb binReports
	for _, id := range ids {
		rb.Reports = append(rb.Reports, exec.BinResponse{ID: id, Loss: 0.5})
	}
	return rb
}

func grantsOf(ids []uint64, table uint64) binGrants {
	g := binGrants{Seq: 5, Tables: []binTable{{Index: table, Experiment: "ptb"}}}
	for _, id := range ids {
		g.Grants = append(g.Grants, binGrant{Table: table, Job: exec.BinRequest{ID: id, Trial: int(id), To: 2}})
	}
	return g
}

// seedFrames builds valid frames of every type.
func seedFrames() [][]byte {
	return [][]byte{
		appendLeaseReq(nil, binLeaseReq{Seq: 1, Max: 8, WaitMillis: 15000}),
		appendLeaseReq(nil, binLeaseReq{Seq: 2, Max: 1, Experiments: []string{"cifar-asha", "ptb"}}),
		appendGrants(nil, binGrants{Seq: 7, Tables: []binTable{
			{Index: 0, Experiment: "cifar-asha", Params: []string{"lr", "momentum"}},
			{Index: 1, Params: nil}, // the anonymous single-experiment run
		}, Grants: []binGrant{
			{Table: 0, Job: exec.BinRequest{ID: 101, Trial: 3, From: 0, To: 4, Vec: []float64{1e-3, 0.9}},
				GrantMs: 1754560000000},
			{Table: 0, Job: exec.BinRequest{ID: 102, Trial: 9, From: 4, To: 16, Vec: []float64{3e-4, 0.99},
				State: []byte(`{"loss":0.5,"w":[1,2,3]}`)}, GrantMs: 1754560000120},
			{Table: 1, Job: exec.BinRequest{ID: 103, Trial: 1, To: 2}, GrantMs: 1754560000250},
		}}),
		appendGrants(nil, binGrants{Seq: 9, Done: true}),
		appendReports(nil, binReports{Seq: 3, Reports: []exec.BinResponse{
			{ID: 101, Loss: 0.25, State: []byte(`{"epoch":4}`)},
			{ID: 102, IsErr: true, Err: "objective exploded"},
		}, Timings: []JobTiming{{DwellUs: 120, ExecUs: 480000, BufUs: 900}, {DwellUs: 3, ExecUs: 75}}}),
		appendReportAck(nil, binReportAck{Seq: 3, Accepted: []bool{true, false, true, true, true, false, true, true, true}}),
		appendHeartbeat(nil, binHeartbeat{RttUs: 1500, Leases: []uint64{101, 102, 1 << 40}}),
		appendHeartbeatAck(nil, []uint64{102}),
	}
}

func FuzzBinaryFrame(f *testing.F) {
	for _, b := range seedFrames() {
		f.Add(b)
	}
	// Corrupted variants: truncation, duplication, a hostile count, an
	// unknown type, trailing garbage — and the retired version-1 types.
	valid := seedFrames()
	f.Add(valid[2][:len(valid[2])-3])
	f.Add(append(append([]byte(nil), valid[4]...), valid[4][1:]...))
	f.Add([]byte{frameReports, 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0x7f, 0x00})
	f.Add(append(append([]byte(nil), valid[0]...), 0xde, 0xad))
	for _, b := range retiredFrames() {
		f.Add(b)
	}
	// Lease order, which the duplicate checks key their fast path on:
	// out of order without a repeat (accepted), and a repeat behind a
	// descent (rejected) — as a reports and as a grants frame.
	for _, ids := range [][]uint64{{9, 4, 6, 5, 12}, {9, 8, 7, 6, 8}} {
		f.Add(appendReports(nil, reportsOf(ids)))
		f.Add(appendGrants(nil, grantsOf(ids, 0)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeAnyFrame(data)
		if err != nil {
			return
		}
		var ids []uint64
		switch m := v.(type) {
		case binReports:
			for _, e := range m.Reports {
				ids = append(ids, e.ID)
			}
		case binGrants:
			for _, gr := range m.Grants {
				ids = append(ids, gr.Job.ID)
			}
		}
		if _, unique := firstOccurrences(ids); !unique {
			t.Fatalf("decoder accepted a frame repeating a lease: %v", ids)
		}
		switch data[0] {
		case 0x02, 0x03, 0x81:
			t.Fatalf("retired frame type 0x%02x decoded as %T", data[0], v)
		}
		enc := reencodeFrame(v)
		if enc == nil {
			t.Fatalf("decoder returned unexpected type %T", v)
		}
		// Whatever decoded must re-encode under the same type byte.
		if enc[0] != data[0] {
			t.Fatalf("re-encoded frame type 0x%02x, decoded from 0x%02x", enc[0], data[0])
		}
		back, err := decodeAnyFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		enc2 := reencodeFrame(back)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("frame encoding not stable:\n % x\n % x", enc, enc2)
		}
	})
}

// FuzzBinaryLeaseBatch drills into the grants frame — the richest
// decoder — with the connection-table context the stream reader runs
// it under: indexes 0..3 are already defined with 0..3 parameters, and
// frames may reference those or define their own.
func FuzzBinaryLeaseBatch(f *testing.F) {
	ambient := func(idx uint64) (int, bool) {
		if idx < 4 {
			return int(idx), true
		}
		return 0, false
	}
	add := func(g binGrants) { f.Add(appendGrants(nil, g)[1:]) } // body after the type byte
	add(binGrants{Seq: 1, Grants: []binGrant{
		{Table: 2, Job: exec.BinRequest{ID: 11, Trial: 4, To: 8, Vec: []float64{0.5, 2}}, GrantMs: 1754560000000},
		{Table: 0, Job: exec.BinRequest{ID: 12, Trial: 5, To: 8}},
	}})
	add(binGrants{Seq: 2, Tables: []binTable{{Index: 7, Experiment: "ptb", Params: []string{"dropout"}}},
		Grants: []binGrant{
			{Table: 7, Job: exec.BinRequest{ID: 21, Trial: 1, To: 2, Vec: []float64{0.3},
				State: []byte("ckpt")}},
			{Table: 3, Job: exec.BinRequest{ID: 22, Trial: 2, To: 2, Vec: []float64{1, 2, 3}}},
		}})
	add(binGrants{Seq: 3, Done: true})
	add(binGrants{Seq: 4, Grants: []binGrant{
		{Table: 1, Job: exec.BinRequest{ID: 31, Trial: 6, To: 4, Vec: []float64{0.1}}, GrantMs: 1<<63 - 1},
	}})
	// Structural violations the decoder must reject whole: a duplicated
	// lease, an undefined table, a vector/table length mismatch.
	f.Add(appendGrants(nil, binGrants{Grants: []binGrant{
		{Table: 0, Job: exec.BinRequest{ID: 5}}, {Table: 0, Job: exec.BinRequest{ID: 5}},
	}})[1:])
	f.Add(appendGrants(nil, binGrants{Grants: []binGrant{{Table: 9, Job: exec.BinRequest{ID: 5}}}})[1:])
	f.Add(appendGrants(nil, binGrants{Grants: []binGrant{
		{Table: 1, Job: exec.BinRequest{ID: 5, Vec: []float64{1, 2, 3}}},
	}})[1:])
	// Lease order: out of order without a repeat (accepted), a repeat
	// behind a descent (rejected).
	f.Add(appendGrants(nil, grantsOf([]uint64{9, 4, 6, 5, 12}, 9))[1:])
	f.Add(appendGrants(nil, grantsOf([]uint64{9, 8, 7, 6, 8}, 9))[1:])
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := decodeGrants(wire.NewReader(data), ambient)
		if err != nil {
			return
		}
		seen := make(map[uint64]bool, len(g.Grants))
		tables := make(map[uint64]int, len(g.Tables))
		for _, tb := range g.Tables {
			if n, ok := tables[tb.Index]; ok && n >= 0 {
				t.Fatalf("decoder accepted duplicated table %d", tb.Index)
			}
			tables[tb.Index] = len(tb.Params)
		}
		for _, gr := range g.Grants {
			if seen[gr.Job.ID] {
				t.Fatalf("decoder accepted duplicated lease %d", gr.Job.ID)
			}
			seen[gr.Job.ID] = true
			want, ok := tables[gr.Table]
			if !ok {
				want, ok = ambient(gr.Table)
			}
			if !ok {
				t.Fatalf("decoder accepted undefined table %d", gr.Table)
			}
			if len(gr.Job.Vec) != want {
				t.Fatalf("decoder accepted a %d-value vector against a %d-param table", len(gr.Job.Vec), want)
			}
		}
		enc := appendGrants(nil, g)[1:]
		back, err := decodeGrants(wire.NewReader(enc), ambient)
		if err != nil {
			t.Fatalf("re-encoded grants failed to decode: %v", err)
		}
		enc2 := appendGrants(nil, back)[1:]
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("grants encoding not stable:\n % x\n % x", enc, enc2)
		}
	})
}

// decodeGrants is binGrants.decode into a fresh value.
func decodeGrants(r *wire.Reader, tableLen func(idx uint64) (int, bool)) (binGrants, error) {
	var g binGrants
	err := g.decode(r, tableLen)
	return g, err
}

// decodeReports is binReports.decode into a fresh value.
func decodeReports(r *wire.Reader) (binReports, error) {
	var rb binReports
	err := rb.decode(r)
	return rb, err
}

// decodeAnyFrame decodes one frame body of any type — the fuzzers'
// entry point, exercising every decoder through the same dispatch the
// stream readers use. Server-side readers only accept worker→server
// types and vice versa; this helper accepts both so one fuzz target
// covers the full surface.
func decodeAnyFrame(body []byte) (interface{}, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("remote: binary frame with empty body")
	}
	r := wire.NewReader(body[1:])
	switch body[0] {
	case frameLease:
		return decodeLeaseReq(r)
	case frameGrants:
		return decodeGrants(r, nil)
	case frameReports:
		return decodeReports(r)
	case frameReportAck:
		return decodeReportAck(r)
	case frameHeartbeat:
		return decodeHeartbeat(r)
	case frameHeartbeatAck:
		return decodeLeaseIDs(r)
	default:
		return nil, fmt.Errorf("remote: unknown binary frame type 0x%02x", body[0])
	}
}
