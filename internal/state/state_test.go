package state

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func testMeta() Meta {
	return Meta{Experiment: "exp", Algo: "asha.ASHA", Seed: 7, Params: []string{"lr", "momentum"}}
}

func sampleRecords() []Record {
	names := testMeta().Params
	return []Record{
		{V: Version, Issue: &Issue{Trial: 0, Rung: 0, Target: 1, Inherit: -1, Kind: KindSample,
			Names: names, Config: map[string]float64{"lr": 0.01, "momentum": 0.9}}},
		{V: Version, Report: &Report{Trial: 0, Rung: 0, Loss: 0.5, TrueLoss: 0.5, Resource: 1, Time: 1.25}},
		{V: Version, Issue: &Issue{Trial: 0, Rung: 1, Target: 4, Inherit: -1, Kind: KindPromote,
			Names: names, Config: map[string]float64{"lr": 0.01, "momentum": 0.9}}},
		{V: Version, Report: &Report{Trial: 0, Rung: 1, Failed: true, Time: 2.5}},
		{V: Version, Snap: &Snapshot{Issued: 2, Completed: 1, Failed: 1, Time: 2.5,
			Trials: []TrialSnap{{Trial: 0, Resource: 1, State: json.RawMessage(`{"loss":0.5}`)}}}},
	}
}

func buildJournal(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	j, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// frame seals body (type byte and fields) as one frame, as the encoder
// would: tests build hostile frames that are whole and checksummed.
func frame(body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

// recordEnds walks a well-formed image and returns the offset just past
// each record: past the meta, and past every frame that is not a names
// frame (which commits with the issue behind it).
func recordEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	for off := len(magic); off < len(data); {
		body, ok := frameAt(data, off)
		if !ok {
			t.Fatalf("image is not well formed at offset %d", off)
		}
		off += frameHeader + len(body)
		if body[0] != typeNames {
			ends = append(ends, off)
		}
	}
	return ends
}

func TestJournalRoundTrip(t *testing.T) {
	want := sampleRecords()
	data := buildJournal(t, want)
	rec, err := Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated {
		t.Fatal("clean journal reported truncated")
	}
	if rec.CleanOffset != int64(len(data)) {
		t.Fatalf("clean offset %d, want %d", rec.CleanOffset, len(data))
	}
	if rec.Meta.Experiment != "exp" || rec.Meta.Seed != 7 || len(rec.Meta.Params) != 2 {
		t.Fatalf("meta did not round-trip: %+v", rec.Meta)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(rec.Records), len(want))
	}
	for i := range want {
		g, _ := json.Marshal(&rec.Records[i])
		w, _ := json.Marshal(&want[i])
		if !bytes.Equal(g, w) {
			t.Errorf("record %d: got %s, want %s", i, g, w)
		}
	}
}

func TestRecoverTornTail(t *testing.T) {
	data := buildJournal(t, sampleRecords())
	// Cut mid-way through the final frame: the torn record is discarded
	// and the clean offset lands on the previous record boundary.
	cut := data[:len(data)-7]
	rec, err := Recover(cut)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Records) != len(sampleRecords())-1 {
		t.Fatalf("got %d committed records, want %d", len(rec.Records), len(sampleRecords())-1)
	}
	ends := recordEnds(t, data)
	if want := ends[len(ends)-2]; rec.CleanOffset != int64(want) {
		t.Fatalf("clean offset %d, want the previous record boundary %d", rec.CleanOffset, want)
	}
}

func TestRecoverCorruptMiddleStopsThere(t *testing.T) {
	data := buildJournal(t, sampleRecords())
	// Damage the second body record; later intact frames must be
	// discarded too — they depend on state the lost record changed.
	ends := recordEnds(t, data)
	corrupt := append([]byte{}, data...)
	corrupt[ends[1]+frameHeader+3] ^= 0x40
	rec, err := Recover(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated {
		t.Fatal("corruption not reported")
	}
	if len(rec.Records) != 1 || rec.CleanOffset != int64(ends[1]) {
		t.Fatalf("got %d records to offset %d, want 1 to %d (everything after the damaged frame discarded)",
			len(rec.Records), rec.CleanOffset, ends[1])
	}
}

func TestRecoverRejectsHeadlessJournals(t *testing.T) {
	head := buildJournal(t, nil)
	report := frame([]byte{typeReport, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	damaged := append([]byte{}, head...)
	damaged[len(damaged)-1] ^= 1
	for _, data := range [][]byte{
		nil,
		[]byte(""),
		magic[:3],          // torn inside the magic
		magic,              // torn before the head record
		head[:len(head)-4], // torn inside the head record
		damaged,            // head record fails its checksum
		append(append([]byte{}, magic...), report...), // first record is not a meta
	} {
		if _, err := Recover(data); !errors.Is(err, ErrNoMeta) {
			t.Errorf("Recover(%q) err = %v, want ErrNoMeta", data, err)
		}
	}
}

// A file that is not of this format is refused by name: the error says
// what was found and what this build writes, and is not ErrNoMeta.
func TestRecoverNamesForeignFormats(t *testing.T) {
	future := append([]byte(magicPrefix), Version+1)
	for _, c := range []struct {
		data []byte
		want string
	}{
		{[]byte("{\"v\":1,\"meta\":{\"experiment\":\"x\",\"seed\":1}}\n"), "format-1 (JSON-lines)"},
		{[]byte("{"), "format-1 (JSON-lines)"},
		{append(future, buildJournal(t, nil)[len(magic):]...), "format-5 journal"},
		// Format 2 framed the same records but meant the full trial table
		// by a snapshot's list: its files are not read as deltas.
		{hostileImages()["format-2"], "format-2 journal"},
		// Format 3 had no checkpoint record.
		{hostileImages()["format-3"], "format-3 journal"},
		{[]byte("not a journal\n"), "no journal magic"},
		{[]byte("ASHA"[:3] + "x"), "no journal magic"},
	} {
		_, err := Recover(c.data)
		if !errors.Is(err, ErrFormat) || errors.Is(err, ErrNoMeta) {
			t.Errorf("Recover(%q) err = %v, want ErrFormat", c.data, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "writes format 4") {
			t.Errorf("Recover(%q) err = %q, want it to name %q and the format this build writes", c.data, err, c.want)
		}
	}
}

func TestRecoverFileLeavesForeignFileAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.journal")
	old := []byte("{\"v\":1,\"meta\":{\"experiment\":\"x\",\"seed\":1}}\n{\"v\":1,\"report\":{\"tri")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverFile(path); !errors.Is(err, ErrFormat) {
		t.Fatalf("RecoverFile err = %v, want ErrFormat", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
		t.Fatalf("RecoverFile changed a file it refused: %q", got)
	}
}

func TestRecoverStopsAtForeignFrames(t *testing.T) {
	clean := buildJournal(t, sampleRecords()[:2])
	second := buildJournal(t, nil)[len(magic):]
	for name, tail := range map[string][]byte{
		"unknown type":           frame([]byte{'X', 1, 2, 3}),
		"second meta":            second,
		"trailing byte in frame": frame(append(append([]byte{}, clean[len(clean)-36:]...), 0)),
		"length beyond the file": binary.LittleEndian.AppendUint32(nil, 1<<20),
		"length beyond MaxFrame": binary.LittleEndian.AppendUint32(nil, math.MaxUint32),
		"empty frame":            make([]byte, frameHeader),
	} {
		data := append(append([]byte{}, clean...), tail...)
		// An intact record behind the bad frame must not be reached.
		data = append(data, clean[len(clean)-44:]...)
		rec, err := Recover(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rec.Truncated || len(rec.Records) != 2 || rec.CleanOffset != int64(len(clean)) {
			t.Errorf("%s not treated as the recovery point: truncated=%v records=%d offset=%d",
				name, rec.Truncated, len(rec.Records), rec.CleanOffset)
		}
	}
}

// Every single-bit flip of a journal image is detected: Recover returns
// an error or a strict prefix of the original records, never a record
// that differs from what was appended.
func TestRecoverNeverReturnsAnAlteredRecord(t *testing.T) {
	// Three delta snapshots: trial 0, then trial 1 beside trial 0 again,
	// then a final one that names nothing.
	data := buildJournal(t, append(sampleRecords(),
		Record{V: Version, Report: &Report{Trial: 1, Rung: 0, Loss: 0.75, TrueLoss: 0.75, Resource: 1, Time: 3}},
		Record{V: Version, Snap: &Snapshot{Issued: 3, Completed: 2, Failed: 1, Time: 3, Trials: []TrialSnap{
			{Trial: 0, Resource: 4, State: json.RawMessage(`{"loss":0.4}`)}, {Trial: 1, Resource: 1}}}},
		Record{V: Version, Snap: &Snapshot{Issued: 3, Completed: 2, Failed: 1, Time: 3, Final: true}}))
	want, err := Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*len(data); bit++ {
		flipped := append([]byte{}, data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		rec, err := Recover(flipped)
		if err != nil {
			if bit/8 >= recordEnds(t, data)[0] {
				t.Fatalf("bit %d (past the head record): %v", bit, err)
			}
			continue
		}
		checkScan(t, flipped, rec)
		if !rec.Truncated || len(rec.Records) >= len(want.Records) {
			t.Fatalf("bit %d: flip went undetected: truncated=%v, %d of %d records", bit, rec.Truncated, len(rec.Records), len(want.Records))
		}
		if !reflect.DeepEqual(rec.Meta, want.Meta) {
			t.Fatalf("bit %d: altered meta %+v", bit, rec.Meta)
		}
		for i := range rec.Records {
			g, _ := json.Marshal(&rec.Records[i])
			w, _ := json.Marshal(&want.Records[i])
			if !bytes.Equal(g, w) {
				t.Fatalf("bit %d: record %d altered: got %s, want %s", bit, i, g, w)
			}
		}
	}
}

// A names frame is written when the table an issue is laid out against
// changes, commits with that issue, and survives decode and re-append
// where it was — including the redundant one a reopened journal writes.
func TestNamesTableFrames(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewWriter(&buf, Meta{Experiment: "exp", Seed: 1}) // no Params: the table is a record of its own
	if err != nil {
		t.Fatal(err)
	}
	ab, xy := []string{"b", "a"}, []string{"x", "y", "z"}
	mustAppend := func(j *Journal, is Issue, vals ...float64) {
		t.Helper()
		err := j.StageIssue(is, vals)
		if err == nil {
			err = j.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(j, Issue{Trial: 0, Inherit: -1, Names: ab}, 1, 2)
	mustAppend(j, Issue{Trial: 1, Inherit: -1, Names: ab}, 3, 4)
	mustAppend(j, Issue{Trial: 2, Inherit: 0, Names: xy}, 5, 6, math.NaN()) // mid-file switch
	mustAppend(j, Issue{Trial: 3, Inherit: -1})                             // and to no parameters at all
	mustAppend(ReopenWriter(&buf, j.Records()), Issue{Trial: 4, Inherit: -1, Names: xy}, 7, 8, 9)
	j2 := ReopenWriter(&buf, j.Records()+1) // does not know the table: declares it again
	mustAppend(j2, Issue{Trial: 5, Inherit: -1, Names: xy}, 7, 8, 9)
	if err := j2.Append(Record{V: Version, Issue: &Issue{Trial: 6, Inherit: -1, Names: xy, Config: map[string]float64{"z": 1, "x": 2, "y": 3}}}); err != nil {
		t.Fatal(err) // a record holding its configuration as a map lays it out against the same table
	}
	data := buf.Bytes()

	tables := 0
	for off := len(magic); off < len(data); {
		body, _ := frameAt(data, off)
		if body[0] == typeNames {
			tables++
		}
		off += frameHeader + len(body)
	}
	if tables != 5 {
		t.Fatalf("%d names frames, want 5 (ab, xy, none, xy, xy again after the reopen)", tables)
	}
	rec, err := Recover(data)
	if err != nil || rec.Truncated || len(rec.Records) != 7 {
		t.Fatalf("recover: %v, %+v", err, rec)
	}
	if got := rec.Records[0].Issue; got.Config["b"] != 1 || got.Config["a"] != 2 || !reflect.DeepEqual(got.Names, ab) {
		t.Fatalf("first issue decoded as %+v", got)
	}
	if got := rec.Records[2].Issue; len(got.Config) != 3 || !math.IsNaN(got.Config["z"]) || got.Inherit != 0 {
		t.Fatalf("issue after the table switch decoded as %+v", got)
	}
	if got := rec.Records[3].Issue; got.Config != nil || got.Names != nil {
		t.Fatalf("parameterless issue decoded as %+v", got)
	}
	// Canonical: the recovered records re-append to the same bytes.
	var again bytes.Buffer
	j3, err := NewWriter(&again, rec.Meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rec.Records {
		if err := j3.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("re-appending the recovered records did not reproduce the image")
	}
	// A names frame whose issue never committed is not a recovery point.
	ends := recordEnds(t, data)
	table := ends[0] + frameHeader + 6 // the first names frame ('N', 2, "b", "a") ends here
	for _, cut := range []int{table - 2, table, table + 5} {
		rec, err := Recover(data[:cut])
		if err != nil || !rec.Truncated || rec.CleanOffset != int64(ends[0]) || len(rec.Records) != 0 {
			t.Fatalf("cut at %d: err %v, %+v; want the head record's boundary %d", cut, err, rec, ends[0])
		}
	}
}

// A checkpoint lays its jobs in flight out against the head's parameters,
// and decodes them into the head's own strings: a scan costs the same
// whether the run had jobs out at its checkpoints, which its timing
// decides. Names the head does not list decode as they were written.
func TestCheckpointNamesAreTheHeads(t *testing.T) {
	head := testMeta()
	journal := func(names []string, checkpoints int) []byte {
		var buf bytes.Buffer
		j, err := NewWriter(&buf, head)
		if err != nil {
			t.Fatal(err)
		}
		var scratch []byte
		for i := 0; i < checkpoints; i++ {
			c := &Checkpoint{Issued: i + 1, Sched: []byte("an image")}
			if names != nil {
				c.Names, c.InFlight = names, []Pending{{Trial: i, Target: 1, Inherit: -1, Vals: make([]float64, len(names))}}
			}
			if _, err := j.AppendCheckpoint(&scratch, c, nil, &Snapshot{Issued: i + 1}); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	scanAllocs := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			s, err := NewScanner(data)
			if err != nil {
				t.Fatal(err)
			}
			for s.Scan() {
			}
		})
	}
	perCheckpoint := func(names []string) float64 {
		return scanAllocs(journal(names, 32)) - scanAllocs(journal(names, 16))
	}
	// The race build's runtime allocates differently, each count drifting
	// by an object either way, so under it the two may differ by two: a
	// job in flight costing objects of its own still shows.
	slack := 0.0
	if raceEnabled {
		slack = 2
	}
	if out, none := perCheckpoint(head.Params), perCheckpoint(nil); math.Abs(out-none) > slack {
		t.Errorf("16 more checkpoints cost %v objects to scan with a job in flight each, %v with none", out, none)
	}
	for _, names := range [][]string{head.Params, {"lr"}, {"lr", "width"}, {"width"}, {"lr", "momentum", "width"}} {
		rec, err := Recover(journal(names, 2))
		if err != nil || len(rec.Records) != 4 {
			t.Fatalf("names %q: recover: %v, %+v", names, err, rec)
		}
		for _, r := range rec.Records {
			if c := r.Checkpoint; c != nil && !reflect.DeepEqual(c.Names, names) {
				t.Errorf("a checkpoint written with names %q decoded with %q", names, c.Names)
			}
		}
	}
}

func TestAppendRefusesWhatRecoverWould(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	cases := map[string]Record{
		"negative trial":      {V: Version, Report: &Report{Trial: -1}},
		"inherit below none":  {V: Version, Issue: &Issue{Inherit: -2}},
		"unknown kind":        {V: Version, Issue: &Issue{Inherit: -1, Kind: "sideways"}},
		"table mismatch":      {V: Version, Issue: &Issue{Inherit: -1, Names: []string{"a", "b"}, Config: map[string]float64{"a": 1, "c": 2}}},
		"repeated name":       {V: Version, Issue: &Issue{Inherit: -1, Names: []string{"a", "a"}, Config: map[string]float64{"a": 1}}},
		"checkpoint not JSON": {V: Version, Snap: &Snapshot{Trials: []TrialSnap{{State: json.RawMessage("{oops")}}}},
	}
	for _, near := range nearNumbers {
		cases["checkpoint "+near] = Record{V: Version, Snap: &Snapshot{Trials: []TrialSnap{{State: json.RawMessage(near)}}}}
	}
	for name, r := range cases {
		if err := j.Append(r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := j.StageIssue(Issue{Inherit: -1, Names: []string{"a"}}, []float64{1, 2}); err == nil {
		t.Error("vector longer than its table accepted")
	}
	if buf.Len() != size {
		t.Fatal("a refused record reached the file")
	}
	if err := j.Append(sampleRecords()[0]); err != nil {
		t.Fatalf("journal poisoned by caller errors: %v", err)
	}
}

func TestRecoverFileTruncatesAndAppends(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exp.journal")
	j, err := Create(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs[:3] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a torn final frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buildJournal(t, recs[3:4])[recordEnds(t, buildJournal(t, nil))[0]:][:20]); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	rec, j2, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated || len(rec.Records) != 3 {
		t.Fatalf("recovery: truncated=%v records=%d, want true/3", rec.Truncated, len(rec.Records))
	}
	// Appending must continue exactly at the recovery point.
	if err := j2.Append(recs[3]); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	final, err := Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	if final.Truncated || len(final.Records) != 4 {
		t.Fatalf("after truncate+append: truncated=%v records=%d, want false/4", final.Truncated, len(final.Records))
	}
}

// brokenWriter accepts budget bytes, then fails — optionally tearing the
// final write short first, like a full disk or a killed process would.
type brokenWriter struct {
	buf    bytes.Buffer
	budget int
}

func (w *brokenWriter) Write(p []byte) (int, error) {
	remain := w.budget - w.buf.Len()
	if remain <= 0 {
		return 0, errors.New("injected write failure")
	}
	if len(p) > remain {
		w.buf.Write(p[:remain])
		return remain, errors.New("injected write failure")
	}
	w.buf.Write(p)
	return len(p), nil
}

func TestJournalWriteFailureIsStickyAndRecoverable(t *testing.T) {
	clean := buildJournal(t, sampleRecords())
	// Fail mid-way through the third body record (a short write).
	w := &brokenWriter{budget: len(clean) - 50}
	j, err := NewWriter(w, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	var appendErr error
	wrote := 0
	for _, r := range sampleRecords() {
		if appendErr = j.Append(r); appendErr != nil {
			break
		}
		wrote++
	}
	if appendErr == nil {
		t.Fatal("append never failed despite the broken writer")
	}
	if wrote == len(sampleRecords()) {
		t.Fatal("all records reported written")
	}
	// Sticky: later appends refuse without touching the writer.
	before := w.buf.Len()
	if err := j.Append(sampleRecords()[0]); err == nil {
		t.Fatal("append after failure succeeded")
	}
	if w.buf.Len() != before {
		t.Fatal("append after failure wrote bytes")
	}
	if err := j.Err(); err == nil {
		t.Fatal("Err() lost the sticky error")
	}
	// The torn image recovers to exactly the records whose appends
	// succeeded: the failed record never half-commits.
	rec, err := Recover(w.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != wrote {
		t.Fatalf("recovered %d records, want %d (the successfully appended ones)", len(rec.Records), wrote)
	}
}

// shortWriter returns n < len(p) with a nil error — a buggy writer the
// journal must still detect.
type shortWriter struct {
	buf   bytes.Buffer
	after int
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if w.buf.Len()+len(p) > w.after {
		n := w.after - w.buf.Len()
		if n < 0 {
			n = 0
		}
		w.buf.Write(p[:n])
		return n, nil
	}
	w.buf.Write(p)
	return len(p), nil
}

func TestJournalDetectsSilentShortWrite(t *testing.T) {
	w := &shortWriter{after: 60} // the head record (45 bytes) fits; the first issue record tears
	j, err := NewWriter(w, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	var last error
	for _, r := range sampleRecords() {
		if last = j.Append(r); last != nil {
			break
		}
	}
	if last == nil || !strings.Contains(last.Error(), "short write") {
		t.Fatalf("short write undetected: %v", last)
	}
}

// syncFailWriter fails on Sync after a set number of successes.
type syncFailWriter struct {
	bytes.Buffer
	okSyncs int
	syncs   int
}

func (w *syncFailWriter) Sync() error {
	w.syncs++
	if w.syncs > w.okSyncs {
		return errors.New("injected fsync failure")
	}
	return nil
}

func TestJournalSyncFailureIsSticky(t *testing.T) {
	w := &syncFailWriter{okSyncs: 2}
	j := &Journal{w: w, SyncEach: true}
	var last error
	n := 0
	for _, r := range append([]Record{{V: Version, Meta: &Meta{Experiment: "x", Seed: 1}}}, sampleRecords()...) {
		if last = j.Append(r); last != nil {
			break
		}
		n++
	}
	if last == nil || !strings.Contains(last.Error(), "sync") {
		t.Fatalf("fsync failure undetected after %d appends: %v", n, last)
	}
	if n != 2 {
		t.Fatalf("%d appends survived, want 2 (the successful syncs)", n)
	}
	if err := j.Append(sampleRecords()[0]); err == nil {
		t.Fatal("append after sync failure succeeded")
	}
}

// countingWriter counts Write and Sync calls over a buffer.
type countingWriter struct {
	bytes.Buffer
	writes, syncs int
}

func (w *countingWriter) Write(p []byte) (int, error) { w.writes++; return w.Buffer.Write(p) }
func (w *countingWriter) Sync() error                 { w.syncs++; return nil }

// Staged records reach the writer on Flush, all of them with one Write
// and one sync; until then they are neither in the file nor counted. A
// record the format refuses drops out of the group without disturbing
// it, and Close flushes what is still staged.
func TestJournalGroupCommit(t *testing.T) {
	w := &countingWriter{}
	j, err := NewWriter(w, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	j.SyncEach = true
	head, names := w.Len(), testMeta().Params
	for trial := 0; trial < 3; trial++ {
		if err := j.StageIssue(Issue{Trial: trial, Inherit: -1, Kind: KindSample, Names: names}, []float64{0.1, 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Stage(Record{V: Version, Report: &Report{Trial: -1}}); err == nil {
		t.Fatal("a negative trial was staged")
	}
	if err := j.Stage(Record{V: Version, Report: &Report{Trial: 0, Loss: 0.5, Resource: 1}}); err != nil {
		t.Fatal(err)
	}
	if w.Len() != head || w.writes != 1 || j.Records() != 1 {
		t.Fatalf("before the flush: %d bytes past the head, %d writes, %d records; want 0, 1, 1", w.Len()-head, w.writes, j.Records())
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil || w.writes != 2 || w.syncs != 1 || j.Records() != 5 {
		t.Fatalf("after the flush (and an empty one): err %v, %d writes, %d syncs, %d records; want nil, 2, 1, 5", err, w.writes, w.syncs, j.Records())
	}
	if err := j.Stage(Record{V: Version, Report: &Report{Trial: 1, Loss: 0.25, Resource: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil || w.writes != 3 {
		t.Fatalf("Close: err %v, %d writes; want it to flush the staged report", err, w.writes)
	}
	rec, err := Recover(w.Bytes())
	if err != nil || rec.Truncated || len(rec.Records) != 5 || rec.Records[3].Report == nil || rec.Records[4].Report.Trial != 1 {
		t.Fatalf("recovered %+v, %v; want three issues and two reports", rec, err)
	}
}

// A failed flush loses the whole group — what of it reached the file is
// a committed prefix recovery keeps — and the journal refuses everything
// after, staged or appended, Close included.
func TestJournalFlushFailureIsSticky(t *testing.T) {
	ends := recordEnds(t, buildJournal(t, sampleRecords()))
	w := &brokenWriter{budget: ends[2] + 5} // tears the third of the four records below
	j, err := NewWriter(w, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords()[:4] {
		if err := j.Stage(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err == nil {
		t.Fatal("flush through a broken writer succeeded")
	}
	if j.Records() != 1 {
		t.Fatalf("Records() = %d after a failed flush, want the meta alone", j.Records())
	}
	before := w.buf.Len()
	if j.Stage(Record{V: Version, Report: &Report{}}) == nil || j.Flush() == nil || j.Append(sampleRecords()[0]) == nil || j.Close() == nil {
		t.Fatal("the journal took a record, a flush or a clean close after its flush failed")
	}
	if w.buf.Len() != before {
		t.Fatal("a failed journal wrote bytes")
	}
	rec, err := Recover(w.buf.Bytes())
	if err != nil || !rec.Truncated || len(rec.Records) != 2 {
		t.Fatalf("recovered %+v, %v; want the two whole records of the torn flush", rec, err)
	}
}

func TestAppendRejectsMalformedRecordWithoutPoisoning(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{V: Version}); err == nil {
		t.Fatal("empty record accepted")
	}
	if err := j.Append(Record{V: Version, Issue: &Issue{}, Report: &Report{}}); err == nil {
		t.Fatal("double-payload record accepted")
	}
	if err := j.Append(sampleRecords()[0]); err != nil {
		t.Fatalf("journal poisoned by caller error: %v", err)
	}
}

func TestJournalRecordsCount(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Records(); got != 1+len(sampleRecords()) {
		t.Fatalf("Records() = %d, want %d", got, 1+len(sampleRecords()))
	}
}

func TestCreateTruncatesPreviousJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exp.journal")
	for run := 0; run < 2; run++ {
		j, err := Create(path, testMeta())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sampleRecords()[:run+1] {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, _ := os.ReadFile(path)
	rec, err := Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("second Create did not truncate: %d records", len(rec.Records))
	}
}

// Losses travel as their IEEE-754 bits: NaN payloads, infinities and
// the sign of zero all survive the codec.
func TestReportNonFiniteLossesRoundTripBitExact(t *testing.T) {
	losses := []float64{math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(0xfff0_0000_0000_0001),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.25}
	var recs []Record
	for _, v := range losses {
		recs = append(recs, Record{V: Version, Report: &Report{Loss: v, TrueLoss: -v, Resource: 1}})
	}
	rec, err := Recover(buildJournal(t, recs))
	if err != nil || len(rec.Records) != len(losses) {
		t.Fatalf("recover: %v, %d records", err, len(rec.Records))
	}
	for i, v := range losses {
		got := rec.Records[i].Report
		if math.Float64bits(got.Loss) != math.Float64bits(v) || math.Float64bits(got.TrueLoss) != math.Float64bits(-v) {
			t.Errorf("loss %x did not round trip bit-exact: got %x/%x", math.Float64bits(v), math.Float64bits(got.Loss), math.Float64bits(got.TrueLoss))
		}
	}
}

func TestRecordValidate(t *testing.T) {
	cases := []struct {
		rec Record
		ok  bool
	}{
		{Record{V: Version, Meta: &Meta{}}, true},
		{Record{V: Version, Issue: &Issue{}}, true},
		{Record{V: Version}, false},
		{Record{V: Version + 1, Issue: &Issue{}}, false},
		{Record{V: Version, Issue: &Issue{}, Snap: &Snapshot{}}, false},
	}
	for i, c := range cases {
		if err := c.rec.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

// BenchmarkScanSnapshots scans 64 snapshots of 64 trial checkpoints each:
// JSON objects, which json.Valid checks, and bare numbers, which the
// number grammar decides alone. It reports each case's cost a checkpoint.
func BenchmarkScanSnapshots(b *testing.B) {
	for _, c := range []struct {
		name  string
		state func(loss float64, step int) []byte
	}{
		{"object", func(loss float64, step int) []byte {
			b := strconv.AppendFloat([]byte(`{"w":[`), loss, 'f', -1, 64)
			return append(strconv.AppendInt(append(b, `,0.25],"step":`...), int64(step), 10), '}')
		}},
		{"number", func(loss float64, _ int) []byte { return strconv.AppendFloat(nil, loss, 'f', -1, 64) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			const snaps, trials = 64, 64
			var buf bytes.Buffer
			j, err := NewWriter(&buf, testMeta())
			for s := 0; s < snaps && err == nil; s++ {
				snap := Snapshot{Issued: (s + 1) * trials, Completed: (s + 1) * trials, Time: float64(s), Trials: make([]TrialSnap, trials)}
				for i := range snap.Trials {
					snap.Trials[i] = TrialSnap{Trial: i, Resource: float64(s + 1), State: c.state(1/float64(s*trials+i+3), s)}
				}
				err = j.AppendSnapshot(snap)
			}
			if err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				sc, err := NewScanner(data)
				for err == nil && sc.Scan() {
				}
				if err != nil || sc.Err() != nil || sc.Truncated {
					b.Fatalf("scan: %v %v", err, sc.Err())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*snaps*trials), "ns/checkpoint")
		})
	}
}
