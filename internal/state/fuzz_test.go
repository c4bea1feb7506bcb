package state

// Native fuzz targets for the journal decoder. On arbitrary bytes
// Recover must never panic and never fail with anything but ErrFormat or
// ErrNoMeta; its recovery point must be a frame boundary inside the
// input; the prefix up to it must recover to the same records with no
// truncation; re-appending those records must reproduce that prefix
// byte for byte — the encoding is canonical; and a Scanner drained over
// the same bytes, in memory or through a window of any size, must stream
// the same records to the same recovery point, so the collected view
// cannot drift from the streamed one.
//
// FuzzRecover mutates whole images. FuzzRecordFrame seals its inputs as
// frames with a correct length and checksum behind a valid head, so the
// mutator reaches the field decoders instead of dying at the CRC.
//
// The seeds below are also committed under testdata/fuzz/ (regenerate
// with `go test ./internal/state -run TestFuzzCorpus -update-corpus`).
// Run with:
//
//	go test ./internal/state -run '^$' -fuzz FuzzRecover -fuzztime 30s

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz from the seeds in fuzz_test.go")

// fuzzSeedJournal builds a small valid journal image for the corpus,
// with a names-table switch in the middle.
func fuzzSeedJournal() []byte {
	var buf bytes.Buffer
	j, err := NewWriter(&buf, Meta{Experiment: "fuzz", Algo: "asha.ASHA", Seed: 3, Params: []string{"lr"}})
	if err != nil {
		panic(err)
	}
	lr, wide := []string{"lr"}, []string{"width", "lr"}
	_ = j.Append(Record{V: Version, Issue: &Issue{Trial: 0, Rung: 0, Target: 1, Inherit: -1, Kind: KindSample, Names: lr, Config: map[string]float64{"lr": 0.25}}})
	_ = j.Append(Record{V: Version, Report: &Report{Trial: 0, Rung: 0, Loss: 1.5, TrueLoss: 1.5, Resource: 1, Time: 0.5}})
	_ = j.Append(Record{V: Version, Issue: &Issue{Trial: 0, Rung: 1, Target: 4, Inherit: -1, Kind: KindPromote, Names: lr, Config: map[string]float64{"lr": 0.25}}})
	_ = j.Append(Record{V: Version, Report: &Report{Trial: 0, Rung: 1, Failed: true, Time: 0.75}})
	_ = j.Append(Record{V: Version, Issue: &Issue{Trial: 1, Rung: 0, Target: 1, Inherit: 0, Kind: KindSample, Names: wide, Config: map[string]float64{"lr": 0.5, "width": 64}}})
	_ = j.AppendSnapshot(Snapshot{Issued: 3, Completed: 1, Failed: 1, Time: 0.75, Final: true,
		Trials: []TrialSnap{{Trial: 0, Resource: 1, State: json.RawMessage(`{"w":[1,2]}`)}, {Trial: 1}}})
	if j.Err() != nil {
		panic(j.Err())
	}
	return buf.Bytes()
}

// fuzzCheckpointJournal builds a small valid journal that holds a
// checkpoint record, committed with the snapshot behind it, between
// issue and report records.
func fuzzCheckpointJournal() []byte {
	var buf bytes.Buffer
	j, err := NewWriter(&buf, Meta{Experiment: "fuzz", Algo: "asha.ASHA", Seed: 3, Params: []string{"lr"}})
	if err != nil {
		panic(err)
	}
	lr := []string{"lr"}
	_ = j.Append(Record{V: Version, Issue: &Issue{Trial: 0, Rung: 0, Target: 1, Inherit: -1, Kind: KindSample, Names: lr, Config: map[string]float64{"lr": 0.25}}})
	_ = j.Append(Record{V: Version, Issue: &Issue{Trial: 1, Rung: 0, Target: 1, Inherit: -1, Kind: KindSample, Names: lr, Config: map[string]float64{"lr": 0.5}}})
	_ = j.Append(Record{V: Version, Report: &Report{Trial: 0, Rung: 0, Loss: 1.5, TrueLoss: 1.5, Resource: 1, Time: 0.5}})
	var scratch []byte
	_, _ = j.AppendCheckpoint(&scratch, &Checkpoint{Issued: 2, Completed: 1, RungCompleted: []int{1},
		Series: []metrics.Point{{Time: 0.5, ValLoss: 1.5, TestLoss: 1.5}}, Names: lr, InFlight: []Pending{{Trial: 1, Target: 1, Inherit: -1, Vals: []float64{0.5}}}, Sched: []byte("an image")},
		nil, &Snapshot{Issued: 2, Completed: 1, Time: 0.5, Trials: []TrialSnap{{Trial: 0, Resource: 1}}})
	_ = j.Append(Record{V: Version, Issue: &Issue{Trial: 0, Rung: 1, Target: 4, Inherit: -1, Kind: KindPromote, Names: lr, Config: map[string]float64{"lr": 0.25}}})
	if j.Err() != nil {
		panic(j.Err())
	}
	return buf.Bytes()
}

// fuzzHead is what FuzzRecordFrame puts in front of its frames: magic,
// meta, a one-name table and an issue that commits it.
func fuzzHead() []byte {
	var buf bytes.Buffer
	j, err := NewWriter(&buf, Meta{Experiment: "fuzz", Seed: 3})
	if err == nil {
		err = j.Append(Record{V: Version, Issue: &Issue{Inherit: -1, Names: []string{"lr"}, Config: map[string]float64{"lr": 0.25}}})
	}
	if err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fl spells floats as the wire does; cat joins the pieces of a body.
func fl(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// hostileFrames are frame bodies for the decoder to refuse — or, report,
// issue, snapshot and checkpoint, to accept — without trusting a count or
// a length inside them. FuzzRecordFrame decodes them under a one-name
// table.
func hostileFrames() map[string][]byte {
	losses := fl(0.125, 0.125, 16, 9.5)
	snap := []byte{typeSnap, 4, 3, 0, 0} // up to the trial count
	// A checkpoint up to its scheduler image: counters, one rung, one
	// series point, one name, one job.
	ckpt := cat([]byte{typeCheckpoint, 1, 0, 0, 1, 0, 1}, fl(0.5, 1.5, 1.5), []byte{1, 2, 'l', 'r', 1, 0, 0, 0}, fl(1, 0.25))
	frames := map[string][]byte{
		"report":          cat([]byte{typeReport, 7, 1, 0}, losses),
		"issue":           cat([]byte{typeIssue, 3, 1, 0, 2}, fl(16, 0.5)),
		"snapshot":        cat(snap, []byte{1}, fl(2.5), []byte{0}, fl(4), []byte{7}, []byte(`{"x":1}`)),
		"names-switch":    {typeNames, 2, 1, 'a', 1, 'b'},
		"names-repeat":    {typeNames, 2, 1, 'a', 1, 'a'},
		"names-count":     {typeNames, 0xff, 0xff, 0xff, 0x7f, 1, 'a'},
		"second-meta":     {typeMeta, 1, 'e', 0, 1, 0},
		"unknown-type":    {'X', 1, 2, 3},
		"trailing-byte":   cat([]byte{typeReport, 7, 1, 0}, losses, []byte{0}),
		"short-report":    cat([]byte{typeReport, 7, 1, 0}, losses[:31]),
		"flag-2":          cat([]byte{typeReport, 7, 1, 2}, losses),
		"padded-varint":   cat([]byte{typeReport, 0x87, 0, 1, 0}, losses),
		"huge-trial":      cat([]byte{typeReport, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 0}, losses),
		"trial-count":     cat(snap, []byte{0xff, 0xff, 0xff, 0x7f}, fl(2.5)),
		"checkpoint-len":  cat(snap, []byte{1}, fl(2.5), []byte{0}, fl(4), []byte{0xff, 0x7f, '1'}),
		"checkpoint-json": cat(snap, []byte{1}, fl(2.5), []byte{0}, fl(4), []byte{2, '{', 'x'}),
		"issue-kind":      cat([]byte{typeIssue, 3, 1, 0, 9}, fl(16, 0.5)),
		"issue-no-vector": cat([]byte{typeIssue, 3, 1, 0, 2}, fl(16)),
		"checkpoint":      cat(ckpt, []byte("image")),
		"checkpoint-bare": ckpt,
		"ckpt-series-len": cat([]byte{typeCheckpoint, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, fl(0.5, 1.5, 1.5)),
	}
	spell := strings.NewReplacer("-", "minus", ".", "dot") // no dot ends a file name
	for _, near := range nearNumbers {
		frames["checkpoint-"+spell.Replace(near)] = cat(snap, []byte{1}, fl(2.5), []byte{0}, fl(4), []byte{byte(len(near))}, []byte(near))
	}
	return frames
}

// nearNumbers are checkpoints strconv.ParseFloat parses and JSON refuses.
var nearNumbers = []string{"01", "00", "1.", "-.5", "1.e5", "-0."}

// hostileImages are whole-file seeds for FuzzRecover.
func hostileImages() map[string][]byte {
	seed := fuzzSeedJournal()
	head := fuzzHead()
	with := func(tail ...[]byte) []byte { return bytes.Join(append([][]byte{head}, tail...), nil) }
	flipped := append([]byte{}, seed...)
	flipped[len(seed)/2] ^= 0x10
	checkpointed := fuzzCheckpointJournal()
	images := map[string][]byte{
		"checkpointed":    checkpointed,
		"torn-checkpoint": checkpointed[:len(checkpointed)-120],
		"clean":           seed,
		"torn-body":       seed[:len(seed)-9],
		"torn-header":     seed[:len(head)+5],
		"torn-meta":       seed[:len(magic)+11],
		"half":            seed[:len(seed)/2],
		"bad-crc":         flipped,
		"empty":           nil,
		"magic-only":      magic,
		"doubled":         append(append([]byte{}, seed...), seed...),
		"v1-json":         []byte("{\"v\":1,\"meta\":{\"experiment\":\"fuzz\",\"seed\":3}}\n"),
		"garbage":         []byte("not a journal\n"),
		"next-version":    append(append([]byte(magicPrefix), Version+1), seed[len(magic):]...),
		"format-2":        append(append([]byte(magicPrefix), 2), seed[len(magic):]...),
		"format-3":        append(append([]byte(magicPrefix), 3), seed[len(magic):]...),
		"length-past":     with(binary.LittleEndian.AppendUint32(nil, 1<<16), []byte{0, 0, 0, 0, typeReport}),
		"length-cap":      with(binary.LittleEndian.AppendUint32(nil, math.MaxUint32), make([]byte, 64)),
		"length-zero":     with(make([]byte, frameHeader), seed[len(head):]),
	}
	for name, body := range hostileFrames() {
		// An intact record behind the frame: refused means not reached.
		images["frame-"+name] = with(frame(body), frame(hostileFrames()["report"]))
	}
	return images
}

// checkRecover asserts the decoder's contract on one image and returns
// what it recovered (nil when the image has no committed head).
func checkRecover(t *testing.T, data []byte) *Recovered {
	t.Helper()
	rec, err := Recover(data)
	if err != nil {
		if !errors.Is(err, ErrNoMeta) && !errors.Is(err, ErrFormat) {
			t.Fatalf("Recover returned unexpected error %v", err)
		}
		for _, window := range []int{1, 7, 64} {
			if _, werr := ScanWindow(bytes.NewReader(data), int64(len(data)), window); fmt.Sprint(werr) != fmt.Sprint(err) {
				t.Fatalf("through a %d-byte window the image is refused with %v, not %v", window, werr, err)
			}
		}
		return nil
	}
	if rec.CleanOffset < int64(len(magic)) || rec.CleanOffset > int64(len(data)) {
		t.Fatalf("clean offset %d outside [%d,%d]", rec.CleanOffset, len(magic), len(data))
	}
	if rec.Truncated != (rec.CleanOffset != int64(len(data))) {
		t.Fatalf("truncated=%v with clean offset %d of %d", rec.Truncated, rec.CleanOffset, len(data))
	}
	clean := data[:rec.CleanOffset]
	for off := len(magic); off != len(clean); {
		body, ok := frameAt(clean, off)
		if !ok {
			t.Fatalf("clean offset %d is not a frame boundary (walk stopped at %d)", rec.CleanOffset, off)
		}
		off += frameHeader + len(body)
	}
	again, err := Recover(clean)
	if err != nil || again.Truncated || len(again.Records) != len(rec.Records) {
		t.Fatalf("the committed prefix recovers differently: %v, %+v", err, again)
	}
	// Canonical: re-appending the records reproduces the prefix exactly,
	// which also shows every field round-trips.
	var buf bytes.Buffer
	j, err := NewWriter(&buf, rec.Meta)
	if err != nil {
		t.Fatalf("re-encoding recovered meta: %v", err)
	}
	for i, r := range rec.Records {
		if err := j.Append(r); err != nil {
			t.Fatalf("re-encoding recovered record %d: %v", i, err)
		}
	}
	if !bytes.Equal(buf.Bytes(), clean) {
		t.Fatalf("re-appending %d recovered records gives\n %x\nnot the committed prefix\n %x", len(rec.Records), buf.Bytes(), clean)
	}
	checkScan(t, data, rec)
	return rec
}

// checkScan asserts that a Scanner streams what Recover collected from
// the same image: as many records, which appended again as they are
// scanned — an issue from its value vector — give the committed prefix
// byte for byte, up to the same recovery point, and any but an issue
// again after a Seek to where Back says it starts. So does a scanner that
// reads the image through a window, a byte of it to the largest frame:
// where the window's edges fall never changes what is read.
func checkScan(t *testing.T, data []byte, rec *Recovered) {
	t.Helper()
	s, err := NewScanner(data)
	if err != nil {
		t.Fatalf("NewScanner refuses what Recover read: %v", err)
	}
	scans := map[string]*Scanner{"in memory": s}
	for _, window := range windows(data[:rec.CleanOffset]) {
		if s, err = ScanWindow(bytes.NewReader(data), int64(len(data)), window); err != nil {
			t.Fatalf("through a %d-byte window the image is refused: %v", window, err)
		}
		scans[fmt.Sprintf("through a %d-byte window", window)] = s
	}
	for name, s := range scans {
		var buf bytes.Buffer
		j, err := NewWriter(&buf, s.Meta)
		if err != nil {
			t.Fatalf("%s: re-encoding scanned meta: %v", name, err)
		}
		n := 0
		for ; s.Scan(); n++ {
			if at := s.CleanOffset; s.Rec.Issue == nil {
				// Read again from where Back says it starts, the record is the same.
				if s.Seek(s.Back()); !s.Scan() || s.CleanOffset != at {
					t.Fatalf("%s: record %d read again from Back ends at %d, not %d", name, n, s.CleanOffset, at)
				}
			}
			if is := s.Rec.Issue; is != nil {
				if err = j.StageIssue(*is, s.Vals); err == nil {
					err = j.Flush()
				}
			} else {
				err = j.Append(s.Rec)
			}
			if err != nil {
				t.Fatalf("%s: re-encoding scanned record %d: %v", name, n, err)
			}
		}
		if s.Scan() || s.Err() != nil {
			t.Fatalf("%s: Scan went on behind the recovery point, or failed: %v", name, s.Err())
		}
		if n != len(rec.Records) || s.CleanOffset != rec.CleanOffset || s.Truncated != rec.Truncated {
			t.Fatalf("%s: scanned %d records to offset %d (truncated %v), Recover collected %d to %d (%v)",
				name, n, s.CleanOffset, s.Truncated, len(rec.Records), rec.CleanOffset, rec.Truncated)
		}
		if !bytes.Equal(buf.Bytes(), data[:rec.CleanOffset]) {
			t.Fatalf("%s: re-appending %d scanned records gives\n %x\nnot the committed prefix\n %x", name, n, buf.Bytes(), data[:rec.CleanOffset])
		}
	}
}

// windows are the window sizes checkScan reads an image through: a byte,
// a few, more, and the largest frame of its committed prefix, clean.
func windows(clean []byte) []int {
	largest := 0
	for off := len(magic); off < len(clean); {
		body, _ := frameAt(clean, off)
		largest = max(largest, frameHeader+len(body))
		off += frameHeader + len(body)
	}
	return []int{1, 7, 64, largest}
}

func FuzzRecover(f *testing.F) {
	for _, image := range hostileImages() {
		f.Add(image)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkRecover(t, data) })
}

func FuzzRecordFrame(f *testing.F) {
	head := fuzzHead()
	for _, body := range hostileFrames() {
		f.Add(body, []byte(nil))
		f.Add([]byte{typeNames, 2, 1, 'a', 1, 'b'}, body)
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		data := append(append(append([]byte{}, head...), frame(first)...), frame(second)...)
		rec := checkRecover(t, data)
		if rec == nil || len(rec.Records) == 0 {
			t.Fatal("the committed head was not recovered")
		}
	})
}

// TestHostileFrames pins what the seeds are seeds of: the report, issue,
// snapshot and checkpoint bodies decode, every other one is the recovery
// point.
func TestHostileFrames(t *testing.T) {
	for name, image := range hostileImages() {
		if !bytes.HasPrefix([]byte(name), []byte("frame-")) {
			continue
		}
		rec := checkRecover(t, image)
		want := 1 // the head's issue
		if name == "frame-report" || name == "frame-issue" || name == "frame-snapshot" || name == "frame-checkpoint" {
			want = 3
		}
		if len(rec.Records) != want || rec.Truncated != (want == 1) {
			t.Errorf("%s: %d records, truncated=%v; want %d", name, len(rec.Records), rec.Truncated, want)
		}
	}
	// A tear inside a checkpoint frame ends the prefix at the record before it.
	if rec := checkRecover(t, hostileImages()["torn-checkpoint"]); len(rec.Records) != 3 || !rec.Truncated {
		t.Errorf("torn-checkpoint: %d records, truncated=%v; want the 3 before the checkpoint", len(rec.Records), rec.Truncated)
	}
}

// TestFuzzCorpus keeps testdata/fuzz in step with the seeds above, so a
// format change cannot leave the committed corpus describing the old one.
func TestFuzzCorpus(t *testing.T) {
	corpus := map[string]string{}
	for name, image := range hostileImages() {
		corpus[filepath.Join("FuzzRecover", "seed-"+name)] = fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", image)
	}
	for name, body := range hostileFrames() {
		corpus[filepath.Join("FuzzRecordFrame", "seed-"+name)] = fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", body, "")
	}
	root := filepath.Join("testdata", "fuzz")
	if *updateCorpus {
		if err := os.RemoveAll(root); err != nil {
			t.Fatal(err)
		}
		for name, content := range corpus {
			if err := os.MkdirAll(filepath.Dir(filepath.Join(root, name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, content := range corpus {
		got, err := os.ReadFile(filepath.Join(root, name))
		if err != nil || string(got) != content {
			t.Errorf("%s is stale (run with -update-corpus): %v", name, err)
		}
	}
}
