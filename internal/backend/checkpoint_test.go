package backend_test

// Resume through a checkpoint record: the checkpoint twin of
// resume_parity_test.go's kill-anywhere parity, the resume state a
// checkpoint restores held against the one full replay rebuilds, and the
// count of scheduler calls a resume makes.

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/searchspace"
	"repro/internal/state"
	"repro/internal/xrand"
)

// ckptDigest is a digestSched that forwards its scheduler's codec: a run
// it drives writes checkpoint records, and a resume through it restores
// from them. The plain digestSched hides the codec, so a resume through
// it replays every record.
type ckptDigest struct{ *digestSched }

func (d ckptDigest) AppendState(dst []byte) []byte { return d.inner.(core.StateCodec).AppendState(dst) }
func (d ckptDigest) RestoreState(b []byte) error   { return d.inner.(core.StateCodec).RestoreState(b) }

// frameSpan is one frame of a journal image.
type frameSpan struct {
	typ        byte
	start, end int
}

func frameSpans(image []byte) []frameSpan {
	const magic, header = 8, 8
	var spans []frameSpan
	for off := magic; off < len(image); {
		end := off + header + int(binary.LittleEndian.Uint32(image[off:]))
		spans = append(spans, frameSpan{typ: image[off+header], start: off, end: end})
		off = end
	}
	return spans
}

// checkpointedRun journals the one-worker parity run through ckptDigest.
func checkpointedRun(t *testing.T) (*digestSched, []byte) {
	t.Helper()
	var buf bytes.Buffer
	journal, err := state.NewWriter(&buf, state.Meta{Experiment: "parity", Seed: paritySeed})
	if err != nil {
		t.Fatal(err)
	}
	space := paritySpace()
	ds := newDigestSched(parityScheduler(space), space)
	ctx := context.Background()
	if _, err := backend.Drive(ctx, ckptDigest{ds}, exec.NewPool(ctx, parityObjective, 1), backend.Options{
		MaxJobs: parityJobs, Journal: journal, SnapshotEvery: paritySnapEvery,
	}); err != nil {
		t.Fatal(err)
	}
	return ds, buf.Bytes()
}

// afterLastCheckpoint counts the issue and report records of a journal
// prefix before and after its last committed checkpoint (all of them
// after, without one).
func afterLastCheckpoint(t *testing.T, prefix []byte) (before, after int) {
	t.Helper()
	rec, err := state.Recover(prefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rec.Records {
		switch {
		case r.Checkpoint != nil:
			before, after = before+after, 0
		case r.Issue != nil, r.Report != nil:
			after++
		}
	}
	return before, after
}

// TestCheckpointResumeParity kills a checkpointed run at every record
// boundary and at torn bytes inside every checkpoint frame, resumes it
// through the checkpoint path, and requires the decisions from the last
// checkpoint before the kill on — the records replayed behind it, then
// the continued run — to be the uninterrupted run's, bit for bit, with no
// more records replayed than follow that checkpoint.
func TestCheckpointResumeParity(t *testing.T) {
	full, image := checkpointedRun(t)
	var cuts []int
	checkpoints := 0
	for _, f := range frameSpans(image) {
		if f.typ != 'N' {
			cuts = append(cuts, f.end)
		}
		if f.typ == 'C' {
			checkpoints++
			cuts = append(cuts, f.start+3, f.start+17, (f.start+f.end)/2, f.end-1)
		}
	}
	if checkpoints < 5 {
		t.Fatalf("the run wrote %d checkpoints; want several to kill around", checkpoints)
	}
	relaunched := false
	for _, cut := range cuts {
		scan, err := state.NewScanner(image[:cut])
		if err != nil {
			t.Fatal(err)
		}
		space := paritySpace()
		ds := newDigestSched(parityScheduler(space), space)
		rs, err := backend.ReplayScan(scan, ckptDigest{ds}, backend.Options{})
		if err != nil {
			t.Fatalf("kill at byte %d: replay: %v", cut, err)
		}
		before, after := afterLastCheckpoint(t, image[:cut])
		if replayed := ds.nexts + ds.reports; replayed != after {
			t.Fatalf("kill at byte %d: replayed %d records, %d follow the last checkpoint", cut, replayed, after)
		}
		relaunched = relaunched || len(rs.Relaunch) > 0
		ctx := context.Background()
		if _, err := backend.Drive(ctx, ckptDigest{ds}, exec.NewPool(ctx, parityObjective, 1), backend.Options{
			MaxJobs: parityJobs, Resume: rs,
		}); err != nil {
			t.Fatalf("kill at byte %d: resumed drive: %v", cut, err)
		}
		if len(ds.lines) != len(full.lines)-before || !slices.Equal(ds.lines, full.lines[before:]) {
			t.Fatalf("kill at byte %d: the %d decisions from the last checkpoint on are not the uninterrupted run's last %d",
				cut, len(ds.lines), len(full.lines)-before)
		}
	}
	if !relaunched {
		t.Error("no checkpoint left a job in flight; the in-flight list went untested")
	}
}

// TestCheckpointRestoresWhatReplayRebuilds cuts the checkpointed run just
// past every checkpoint and past the snapshot behind it, and resumes each
// cut twice — restored from the checkpoint, and replayed in full with the
// codec hidden: the two resume states agree, and so do the two
// schedulers' images.
func TestCheckpointRestoresWhatReplayRebuilds(t *testing.T) {
	_, image := checkpointedRun(t)
	spans := frameSpans(image)
	for i, f := range spans {
		if f.typ != 'C' {
			continue
		}
		for _, cut := range []int{f.end, spans[i+1].end} {
			resume := func(sched core.Scheduler) *backend.ResumeState {
				scan, err := state.NewScanner(image[:cut])
				if err != nil {
					t.Fatal(err)
				}
				rs, err := backend.ReplayScan(scan, sched, backend.Options{})
				if err != nil {
					t.Fatalf("cut at byte %d: %v", cut, err)
				}
				return rs
			}
			space := paritySpace()
			restored, replayed := newDigestSched(parityScheduler(space), space), newDigestSched(parityScheduler(space), space)
			rsC, rsF := resume(ckptDigest{restored}), resume(replayed)
			if restored.nexts != 0 || replayed.nexts == 0 {
				t.Fatalf("cut at byte %d: %d and %d Next calls; want the checkpoint path to make none", cut, restored.nexts, replayed.nexts)
			}
			if diff := backend.ResumeDiff(rsC, rsF); diff != "" {
				t.Fatalf("cut at byte %d: the checkpoint restores another resume state than replay rebuilds: %s", cut, diff)
			}
			a, b := restored.inner.(core.StateCodec).AppendState(nil), replayed.inner.(core.StateCodec).AppendState(nil)
			if !bytes.Equal(a, b) {
				t.Fatalf("cut at byte %d: the restored scheduler's image differs from the replayed one's", cut)
			}
		}
	}
}

// TestResumeOfAFinishedJournalMakesNoSchedulerCalls journals a finished
// 15 000-job ASHA run and resumes it twice: through the checkpoint its
// final snapshot carries, with no Next and no Report call, and with the
// codec hidden, with one of each per job.
func TestResumeOfAFinishedJournalMakesNoSchedulerCalls(t *testing.T) {
	const jobs = 15_000
	space := searchspace.New(
		searchspace.Param{Name: "lr", Type: searchspace.LogUniform, Lo: 1e-4, Hi: 1},
		searchspace.Param{Name: "momentum", Type: searchspace.Uniform, Lo: 0, Hi: 1})
	asha := func() *digestSched {
		return newDigestSched(core.NewASHA(core.ASHAConfig{Space: space, RNG: xrand.New(7), Eta: 4, MinResource: 1, MaxResource: 256}), space)
	}
	var image bytes.Buffer
	journal, err := state.NewWriter(&image, state.Meta{Experiment: "finished", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if run, err := backend.Drive(context.Background(), ckptDigest{asha()}, &shuffled{width: 2, rng: xrand.New(2)},
		backend.Options{MaxJobs: jobs, Journal: journal}); err != nil || run.CompletedJobs != jobs {
		t.Fatalf("journaling: %v", err)
	}
	for _, c := range []struct {
		name    string
		wrap    func(*digestSched) core.Scheduler
		calls   int
		records int
	}{
		{"checkpoint", func(d *digestSched) core.Scheduler { return ckptDigest{d} }, 0, 0},
		{"full replay", func(d *digestSched) core.Scheduler { return d }, jobs, jobs},
	} {
		scan, err := state.NewScanner(image.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		ds := asha()
		rs, err := backend.ReplayScan(scan, c.wrap(ds), backend.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %d Next and %d Report calls", c.name, ds.nexts, ds.reports)
		if ds.nexts != c.calls || ds.reports != c.calls || rs.Run.CompletedJobs != jobs {
			t.Errorf("%s: %d Next and %d Report calls for %d completions; want %d each", c.name, ds.nexts, ds.reports, rs.Run.CompletedJobs, c.calls)
		}
	}
}

// ModelASHA inherits ASHA's methods but declines to be checkpointed (its
// TPE model is its whole history): its journal holds no checkpoint, and
// a resume replays every record.
func TestModelASHAJournalReplaysInFull(t *testing.T) {
	const jobs = 150
	space := paritySpace()
	model := func() *digestSched {
		return newDigestSched(core.NewModelASHA(core.ModelASHAConfig{Space: space, RNG: xrand.New(3), Eta: 3, MinResource: 1, MaxResource: 27}), space)
	}
	var image bytes.Buffer
	journal, err := state.NewWriter(&image, state.Meta{Experiment: "model", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.Drive(context.Background(), ckptDigest{model()}, &shuffled{width: 4, rng: xrand.New(3)},
		backend.Options{MaxJobs: jobs, Journal: journal, SnapshotEvery: 8}); err != nil {
		t.Fatal(err)
	}
	before, after := afterLastCheckpoint(t, image.Bytes())
	if before != 0 || after != 2*jobs {
		t.Fatalf("the journal has %d records behind a checkpoint; want none of its %d", before, 2*jobs)
	}
	scan, err := state.NewScanner(image.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ds := model()
	if _, err := backend.ReplayScan(scan, ckptDigest{ds}, backend.Options{}); err != nil || ds.nexts != jobs || ds.reports != jobs {
		t.Fatalf("resume: %v after %d Next and %d Report calls; want %d of each", err, ds.nexts, ds.reports, jobs)
	}
}
