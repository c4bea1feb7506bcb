package backend_test

// Replay's refusals, its two entry points held against each other, and
// what a record costs to replay as the fleet that wrote the journal
// grows. The decision-stream side of replay is resume_parity_test.go's.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/searchspace"
	"repro/internal/state"
	"repro/internal/xrand"
)

// shuffled is a backend that holds up to width jobs and completes them
// one at a time in a seeded random order: the journal of a fleet that
// wide, without the fleet.
type shuffled struct {
	width    int
	rng      *xrand.RNG
	inflight []core.Job
	done     [1]backend.Completion
	now      float64
}

func (b *shuffled) Capacity() int        { return b.width }
func (b *shuffled) Launch(job core.Job)  { b.inflight = append(b.inflight, job) }
func (b *shuffled) Now() float64         { return b.now }
func (b *shuffled) Close() error         { return nil }
func (b *shuffled) Stats() backend.Stats { return backend.Stats{} }

func (b *shuffled) Await(context.Context) ([]backend.Completion, error) {
	if len(b.inflight) == 0 {
		return nil, nil
	}
	i := b.rng.IntN(len(b.inflight))
	job := b.inflight[i]
	b.inflight[i] = b.inflight[len(b.inflight)-1]
	b.inflight = b.inflight[:len(b.inflight)-1]
	b.now++
	loss := job.Config.Get("momentum") + 1/job.TargetResource
	b.done[0] = backend.Completion{Job: job, Loss: loss, TrueLoss: loss, Resource: job.TargetResource, Time: b.now}
	return b.done[:], nil
}

// wideJournal journals a parity-scheduler run of jobs jobs with width of
// them in flight.
func wideJournal(tb testing.TB, width, jobs int) []byte {
	tb.Helper()
	var image bytes.Buffer
	journal, err := state.NewWriter(&image, state.Meta{Experiment: "wide", Seed: paritySeed})
	if err != nil {
		tb.Fatal(err)
	}
	run, err := backend.Drive(context.Background(), parityScheduler(paritySpace()),
		&shuffled{width: width, rng: xrand.New(uint64(width))}, backend.Options{MaxJobs: jobs, Journal: journal})
	if err != nil || run.CompletedJobs != jobs {
		tb.Fatalf("journaling %d jobs at %d in flight: completed %d, %v", jobs, width, run.CompletedJobs, err)
	}
	return image.Bytes()
}

// replayBoth replays an image through the entry point the product uses
// and through Replay over the collected records, and requires one
// outcome of the two.
func replayBoth(t *testing.T, image []byte, sched func() core.Scheduler) (*backend.ResumeState, error) {
	t.Helper()
	scan, err := state.NewScanner(image)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := state.Recover(image)
	if err != nil {
		t.Fatal(err)
	}
	streamed, serr := backend.ReplayScan(scan, sched(), backend.Options{})
	collected, cerr := backend.Replay(rec, sched(), backend.Options{})
	if fmt.Sprint(serr) != fmt.Sprint(cerr) {
		t.Fatalf("streamed replay: %v\ncollected replay: %v", serr, cerr)
	}
	if serr != nil {
		return nil, serr
	}
	if !reflect.DeepEqual(streamed.Run, collected.Run) || streamed.TimeOffset != collected.TimeOffset ||
		!slices.EqualFunc(streamed.Relaunch, collected.Relaunch, func(a, b core.Job) bool {
			return a.TrialID == b.TrialID && a.Rung == b.Rung && a.TargetResource == b.TargetResource
		}) ||
		!slices.EqualFunc(backend.TrialSnaps(&streamed.Trials), backend.TrialSnaps(&collected.Trials), func(a, b state.TrialSnap) bool {
			return a.Trial == b.Trial && a.Resource == b.Resource && bytes.Equal(a.State, b.State)
		}) {
		t.Fatalf("streamed replay restored %+v, collected replay %+v", streamed, collected)
	}
	return streamed, nil
}

// edited re-appends an image's records with one change made to them.
func edited(t *testing.T, image []byte, edit func([]state.Record) []state.Record) []byte {
	t.Helper()
	rec, err := state.Recover(image)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	journal, err := state.NewWriter(&out, rec.Meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range edit(rec.Records) {
		if err := journal.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

func TestReplayRefusesDivergingJournals(t *testing.T) {
	_, journal, bounds := runUninterrupted(t)
	image := journal[:bounds[40]] // meta + 40 records: issues and reports alternate, snapshots between
	matching := func() core.Scheduler { return parityScheduler(paritySpace()) }
	if rs, err := replayBoth(t, image, matching); err != nil || rs.Run.IssuedJobs == 0 {
		t.Fatalf("the unedited journal: %v, %+v", err, rs)
	}
	for name, c := range map[string]struct {
		sched func() core.Scheduler
		edit  func([]state.Record) []state.Record
		want  string
	}{
		"wrong seed": {
			sched: func() core.Scheduler {
				return core.NewASHA(core.ASHAConfig{Space: paritySpace(), RNG: xrand.New(paritySeed + 1), Eta: 4, MinResource: 1, MaxResource: 256})
			},
			want: `record 0: backend: journal/scheduler divergence on trial 0 parameter "lr"`,
		},
		"edited value": {
			edit: func(recs []state.Record) []state.Record {
				recs[2].Issue.Config["width"] = 96
				return recs
			},
			want: `record 2: backend: journal/scheduler divergence on trial 1 parameter "width": journal 96`,
		},
		"edited target": {
			edit: func(recs []state.Record) []state.Record {
				recs[2].Issue.Target = 2
				return recs
			},
			want: "record 2: backend: journal/scheduler divergence: journal issued trial 1 rung 0 target 2",
		},
		"report without issue": {
			edit: func(recs []state.Record) []state.Record {
				return slices.Insert(recs, 4, state.Record{V: state.Version, Report: &state.Report{Trial: 1, Rung: 0, Loss: 1, Resource: 1}})
			},
			want: "record 4: report for trial 1 rung 0 has no outstanding issue",
		},
		"report of a trial never issued": {
			edit: func(recs []state.Record) []state.Record {
				return slices.Insert(recs, 4, state.Record{V: state.Version, Report: &state.Report{Trial: 900, Rung: 0}})
			},
			want: "record 4: report for trial 900 rung 0 has no outstanding issue",
		},
		"report of another rung": {
			edit: func(recs []state.Record) []state.Record {
				recs[1].Report.Rung = 1
				return recs
			},
			want: "record 1: report for trial 0 rung 1 has no outstanding issue",
		},
		"snapshot of an unissued trial": {
			edit: func(recs []state.Record) []state.Record {
				return append(recs, state.Record{V: state.Version, Snap: &state.Snapshot{Trials: []state.TrialSnap{{Trial: 900, Resource: 1}}}})
			},
			want: "record 40: snapshot of trial 900, which the journal never issued",
		},
	} {
		img, sched := image, matching
		if c.edit != nil {
			img = edited(t, image, c.edit)
		}
		if c.sched != nil {
			sched = c.sched
		}
		if _, err := replayBoth(t, img, sched); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: replay error %v, want one holding %q", name, err, c.want)
		}
	}
}

// scripted is a scheduler that issues a fixed list of jobs.
type scripted struct{ jobs []core.Job }

func (s *scripted) Next() (job core.Job, ok bool) {
	if ok = len(s.jobs) > 0; ok {
		job, s.jobs = s.jobs[0], s.jobs[1:]
	}
	return job, ok
}
func (*scripted) Report(core.Result)      {}
func (*scripted) Best() (core.Best, bool) { return core.Best{}, false }
func (*scripted) Done() bool              { return false }

// A report settles the oldest outstanding issue of its (trial, rung),
// also when one trial has several issues outstanding at once — which no
// scheduler in the tree does, so the journal is written by hand — and a
// scheduler that runs out of jobs before the journal does is refused.
func TestReplayPairsAReportWithItsOldestIssue(t *testing.T) {
	cfg := searchspace.FromMap(map[string]float64{"lr": 0.5})
	job := func(trial, rung int, target float64) core.Job {
		return core.Job{TrialID: trial, Config: cfg, Rung: rung, TargetResource: target, InheritFrom: -1}
	}
	script := []core.Job{job(0, 0, 1), job(0, 1, 2), job(1, 0, 3), job(0, 0, 4), job(2, 0, 5)}
	var image bytes.Buffer
	journal, err := state.NewWriter(&image, state.Meta{Experiment: "pairs"})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range script {
		if err := journal.StageIssue(state.Issue{Trial: j.TrialID, Rung: j.Rung, Target: j.TargetResource, Inherit: -1, Names: cfg.Names()}, cfg.Values()); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []state.Report{{Trial: 0, Rung: 1}, {Trial: 0, Rung: 0}, {Trial: 2, Rung: 0}} {
		if err := journal.Append(state.Record{V: state.Version, Report: &r}); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := replayBoth(t, image.Bytes(), func() core.Scheduler { return &scripted{jobs: slices.Clone(script)} })
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Relaunch) != 2 || rs.Relaunch[0].TargetResource != 3 || rs.Relaunch[1].TargetResource != 4 {
		t.Errorf("outstanding after the reports: %+v; want trial 1's issue, then trial 0's second issue of rung 0, in issue order", rs.Relaunch)
	}
	_, err = replayBoth(t, image.Bytes(), func() core.Scheduler { return &scripted{jobs: slices.Clone(script[:3])} })
	if err == nil || !strings.Contains(err.Error(), "record 3: journal holds an issued job but the scheduler declined") {
		t.Errorf("a scheduler with fewer jobs than the journal: %v", err)
	}
}

// A journal written with hundreds of jobs in flight replays to the same
// state through both entry points, and leaves nothing outstanding.
func TestReplayWideJournal(t *testing.T) {
	const jobs = 3000
	rs, err := replayBoth(t, wideJournal(t, 512, jobs), func() core.Scheduler { return parityScheduler(paritySpace()) })
	if err != nil {
		t.Fatal(err)
	}
	if rs.Run.CompletedJobs != jobs || len(rs.Relaunch) != 0 {
		t.Errorf("replayed %d completions with %d jobs outstanding, want %d and none", rs.Run.CompletedJobs, len(rs.Relaunch), jobs)
	}
}

// BenchmarkReplayWide is what replaying one record costs against how
// many jobs were in flight when the journal was written: pairing a
// report with its issue must not be a search among them.
func BenchmarkReplayWide(b *testing.B) {
	const jobs = 20_000
	for _, width := range []int{2, 512} {
		b.Run(fmt.Sprint(width), func(b *testing.B) {
			image := wideJournal(b, width, jobs)
			rec, err := state.Recover(image)
			if err != nil {
				b.Fatal(err)
			}
			records := len(rec.Records)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan, err := state.NewScanner(image)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := backend.ReplayScan(scan, parityScheduler(paritySpace()), backend.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}
