package backend_test

// Crash-mid-write and exactly-once tests: a journal whose writer fails
// (short write, disk error, fsync failure) must abort the run at the
// failure point, recover to a clean prefix, and resume without ever
// double-issuing a job — a (trial, rung) attempt that succeeded in the
// journal is never launched again, and an in-flight attempt is
// relaunched exactly once. The remote variant proves the property end to
// end: the resumed lease server starts with an empty lease table, so
// journaled in-flight jobs requeue for the new fleet while reports from
// pre-restart leases are rejected.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/remote"
	"repro/internal/state"
)

// brokenWriter accepts budget bytes then fails, tearing the final write.
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

// journalTally summarizes a journal's issue/report stream per
// (trial, rung) pair.
type journalTally struct {
	issues    map[[2]int]int
	successes map[[2]int]int
	failures  map[[2]int]int
	reports   int
}

func tallyJournal(t *testing.T, data []byte) journalTally {
	t.Helper()
	rec, err := state.Recover(data)
	if err != nil {
		t.Fatalf("tally recover: %v", err)
	}
	tl := journalTally{
		issues:    make(map[[2]int]int),
		successes: make(map[[2]int]int),
		failures:  make(map[[2]int]int),
	}
	for _, r := range rec.Records {
		switch {
		case r.Issue != nil:
			tl.issues[[2]int{r.Issue.Trial, r.Issue.Rung}]++
		case r.Report != nil:
			tl.reports++
			key := [2]int{r.Report.Trial, r.Report.Rung}
			if r.Report.Failed {
				tl.failures[key]++
			} else {
				tl.successes[key]++
			}
		}
	}
	return tl
}

// assertExactlyOnce checks the end-state invariants of a completed
// journaled run: every issued attempt succeeded exactly once (modulo
// journaled failures, each of which has a matching retry issue), and no
// pair ever collected two successes.
func assertExactlyOnce(t *testing.T, tl journalTally, wantJobs int) {
	t.Helper()
	for key, n := range tl.successes {
		if n > 1 {
			t.Errorf("trial %d rung %d succeeded %d times — double-delivered", key[0], key[1], n)
		}
	}
	totalIssues, totalSuccesses, totalFailures := 0, 0, 0
	for _, n := range tl.issues {
		totalIssues += n
	}
	for _, n := range tl.successes {
		totalSuccesses += n
	}
	for _, n := range tl.failures {
		totalFailures += n
	}
	if totalIssues != wantJobs {
		t.Errorf("journal holds %d issues, want %d", totalIssues, wantJobs)
	}
	// Every failure is retried with a fresh issue record, so the
	// journaled issues of a pair must cover its failures plus one success.
	for key, n := range tl.successes {
		if want := n + tl.failures[key]; tl.issues[key] != want {
			t.Errorf("trial %d rung %d: %d issues for %d successes + %d failures",
				key[0], key[1], tl.issues[key], n, tl.failures[key])
		}
	}
	if totalSuccesses+totalFailures != totalIssues {
		t.Errorf("journal settles %d of %d issues (run should have drained)",
			totalSuccesses+totalFailures, totalIssues)
	}
}

func TestDriveJournalWriteFailureAbortsAndResumesExactlyOnce(t *testing.T) {
	const jobs = 150
	// Size the failure budget from a clean run of the same seed so the
	// crash lands mid-run, mid-record.
	_, clean, _ := runUninterrupted(t)
	w := &brokenWriter{budget: len(clean) * 40 / 100 * jobs / parityJobs}
	journal, err := state.NewWriter(w, state.Meta{Experiment: "parity", Seed: paritySeed})
	if err != nil {
		t.Fatal(err)
	}
	space := paritySpace()
	sched := parityScheduler(space)
	ctx := context.Background()
	pool := exec.NewPool(ctx, parityObjective, 2)
	_, err = backend.Drive(ctx, sched, pool, backend.Options{
		MaxJobs: jobs, Journal: journal, SnapshotEvery: paritySnapEvery,
	})
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("run survived a dying journal: %v", err)
	}

	// The torn image recovers cleanly...
	rec, err := state.Recover(w.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// ...and the resumed run completes the budget with exactly-once
	// accounting across the combined prefix + continuation journal.
	sched2 := parityScheduler(space)
	rs, err := backend.Replay(rec, sched2, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBuffer(append([]byte{}, w.buf.Bytes()[:rec.CleanOffset]...))
	journal2 := state.ReopenWriter(buf, 1+len(rec.Records))
	pool2 := exec.NewPool(ctx, parityObjective, 2)
	run, err := backend.Drive(ctx, sched2, pool2, backend.Options{
		MaxJobs: jobs, Journal: journal2, SnapshotEvery: paritySnapEvery, Resume: rs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.IssuedJobs != jobs || run.CompletedJobs != jobs {
		t.Fatalf("resumed run issued %d / completed %d, want %d", run.IssuedJobs, run.CompletedJobs, jobs)
	}
	assertExactlyOnce(t, tallyJournal(t, buf.Bytes()), jobs)
}

// syncFailWriter fails Sync after a set number of successes.
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

func TestDriveJournalFsyncFailureAborts(t *testing.T) {
	w := &syncFailWriter{okSyncs: 12}
	journal, err := state.NewWriter(w, state.Meta{Experiment: "parity", Seed: paritySeed})
	if err != nil {
		t.Fatal(err)
	}
	journal.SyncEach = true
	space := paritySpace()
	ctx := context.Background()
	pool := exec.NewPool(ctx, parityObjective, 1)
	_, err = backend.Drive(ctx, parityScheduler(space), pool, backend.Options{
		MaxJobs: 100, Journal: journal,
	})
	if err == nil || !strings.Contains(err.Error(), "sync") {
		t.Fatalf("run survived fsync failures: %v", err)
	}
	// Everything the journal acknowledged is still recoverable.
	rec, recErr := state.Recover(w.Bytes())
	if recErr != nil {
		t.Fatal(recErr)
	}
	if len(rec.Records) == 0 {
		t.Fatal("no records recovered from the acknowledged prefix")
	}
}

// TestRemoteResumeWithHalfFlushedReportBatch kills the tuner while a
// batching worker holds a half-flushed report batch: jobs that have
// completed worker-side but whose ReportBatch has not been delivered
// (the flush deadline is far away) are, from the journal's point of
// view, issued-unreported — so a resumed run must relaunch exactly
// those, reject anything the dead server's worker still tries to
// deliver, and settle every issued attempt exactly once across the
// combined journal.
func TestRemoteResumeWithHalfFlushedReportBatch(t *testing.T) {
	const jobs = 80
	space := paritySpace()
	// A small per-job delay spreads completions out, so at the kill
	// decision the worker's report buffer is mid-fill, and the one-second
	// flush deadline keeps buffered completions undelivered. Jobs that
	// start after the decision stall until their worker is stopped — the
	// kill delay is wall clock, and without the stall a stretched Sleep
	// under load let all 80 jobs finish before the kill landed.
	var killing atomic.Bool
	slowObjective := func(ctx context.Context, cfg map[string]float64, from, to float64, st interface{}) (float64, interface{}, error) {
		if killing.Load() {
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
			}
		}
		time.Sleep(2 * time.Millisecond)
		return parityObjective(ctx, cfg, from, to, st)
	}
	newAgent := func(url string) (context.CancelFunc, chan struct{}) {
		ctx, stop := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = remote.ServeAgent(ctx, remote.AgentOptions{
				Server: url, Slots: 2,
				Resolve: func(string) (exec.Objective, error) { return slowObjective, nil },
			})
		}()
		return stop, done
	}

	srv1, err := remote.NewServer(remote.Options{BatchSize: 8, Prefetch: 4, FlushInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stopAgent1, agent1Done := newAgent(srv1.URL())

	var buf bytes.Buffer
	journal, err := state.NewWriter(&buf, state.Meta{Experiment: "parity", Seed: paritySeed})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, kill := context.WithCancel(context.Background())
	var completed atomic.Int32
	sched := parityScheduler(space)
	// Capacity exceeds the agent's Slots+Prefetch so its prefetch queue
	// never runs dry: the idle-flush trigger stays quiet and completed
	// responses genuinely accumulate in the report buffer.
	_, err = backend.Drive(runCtx, sched, remote.NewBackend(srv1, 8), backend.Options{
		MaxJobs: jobs, Journal: journal, SnapshotEvery: 8,
		OnResult: func(core.Result, core.Best, bool) {
			if completed.Add(1) == 24 {
				killing.Store(true)
				go func() {
					time.Sleep(50 * time.Millisecond)
					kill()
				}()
			}
		},
	})
	if err != nil {
		t.Fatalf("killed run returned error: %v", err)
	}
	kill()
	stopAgent1()
	<-agent1Done

	killing.Store(false) // resume-phase jobs run at full speed again

	rec, err := state.Recover(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sched2 := parityScheduler(space)
	rs, err := backend.Replay(rec, sched2, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Relaunch) == 0 {
		t.Fatal("kill left no issued-unreported jobs; the half-flushed batch never existed")
	}

	// Resume against a brand-new server with a fresh batching fleet.
	srv2, err := remote.NewServer(remote.Options{BatchSize: 8, Prefetch: 4, FlushInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stopAgent2, agent2Done := newAgent(srv2.URL())
	defer stopAgent2()
	journal2 := state.ReopenWriter(&buf, 1+len(rec.Records))
	run, err := backend.Drive(context.Background(), sched2, remote.NewBackend(srv2, 8), backend.Options{
		MaxJobs: jobs, Journal: journal2, SnapshotEvery: 8, Resume: rs,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopAgent2()
	<-agent2Done
	if run.IssuedJobs != jobs {
		t.Fatalf("resumed run issued %d jobs, want %d", run.IssuedJobs, jobs)
	}
	assertExactlyOnce(t, tallyJournal(t, buf.Bytes()), jobs)
}

// TestRemoteResumeExactlyOnce kills a distributed run (tuner side) with
// jobs leased to a live worker, then resumes against a brand-new lease
// server: journaled in-flight jobs requeue for the new fleet, the old
// worker's reports die with the old server, and the combined journal
// still settles every issued attempt exactly once.
func TestRemoteResumeExactlyOnce(t *testing.T) {
	const jobs = 60
	space := paritySpace()
	// Jobs leased after the kill decision stall far longer than the kill
	// delay, so the engine deterministically dies with leases in flight —
	// a synchronous cancel could land at a batch boundary with zero
	// in-flight jobs and test nothing.
	var killing atomic.Bool
	slowObjective := func(ctx context.Context, cfg map[string]float64, from, to float64, st interface{}) (float64, interface{}, error) {
		if killing.Load() {
			time.Sleep(400 * time.Millisecond)
		}
		return parityObjective(ctx, cfg, from, to, st)
	}

	srv1, err := remote.NewServer(remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	agentCtx1, stopAgent1 := context.WithCancel(context.Background())
	agent1Done := make(chan struct{})
	go func() {
		defer close(agent1Done)
		_ = remote.ServeAgent(agentCtx1, remote.AgentOptions{
			Server: srv1.URL(), Slots: 2,
			Resolve: func(string) (exec.Objective, error) { return slowObjective, nil },
		})
	}()

	var buf bytes.Buffer
	journal, err := state.NewWriter(&buf, state.Meta{Experiment: "parity", Seed: paritySeed})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, kill := context.WithCancel(context.Background())
	var completed atomic.Int32
	sched := parityScheduler(space)
	_, err = backend.Drive(runCtx, sched, remote.NewBackend(srv1, 2), backend.Options{
		MaxJobs: jobs, Journal: journal, SnapshotEvery: 8,
		OnResult: func(core.Result, core.Best, bool) {
			if completed.Add(1) == 20 {
				// Stall every job leased from here on, then cancel while
				// they are mid-flight.
				killing.Store(true)
				go func() {
					time.Sleep(50 * time.Millisecond)
					kill()
				}()
			}
		},
	})
	if err != nil {
		t.Fatalf("killed run returned error: %v", err)
	}
	kill()
	stopAgent1()
	<-agent1Done

	killing.Store(false) // resume-phase jobs run at full speed again

	// Resume against a brand-new server and worker.
	rec, err := state.Recover(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sched2 := parityScheduler(space)
	rs, err := backend.Replay(rec, sched2, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Relaunch) == 0 {
		t.Fatal("kill left no jobs in flight; the test lost its point")
	}
	srv2, err := remote.NewServer(remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	agentCtx2, stopAgent2 := context.WithCancel(context.Background())
	defer stopAgent2()
	agent2Done := make(chan struct{})
	go func() {
		defer close(agent2Done)
		_ = remote.ServeAgent(agentCtx2, remote.AgentOptions{
			Server: srv2.URL(), Slots: 2,
			Resolve: func(string) (exec.Objective, error) { return slowObjective, nil },
		})
	}()
	journal2 := state.ReopenWriter(&buf, 1+len(rec.Records))
	run, err := backend.Drive(context.Background(), sched2, remote.NewBackend(srv2, 2), backend.Options{
		MaxJobs: jobs, Journal: journal2, SnapshotEvery: 8, Resume: rs,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopAgent2()
	<-agent2Done
	if run.IssuedJobs != jobs {
		t.Fatalf("resumed run issued %d jobs, want %d", run.IssuedJobs, jobs)
	}
	assertExactlyOnce(t, tallyJournal(t, buf.Bytes()), jobs)
}
