package backend

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/searchspace"
	"repro/internal/state"
	"repro/internal/xrand"
)

// TestPick pins the slot-allocation policy on hand-built lane tables:
// every case lists lanes in rank order and names the lane that must get
// the next slot.
func TestPick(t *testing.T) {
	a10 := &tenant{name: "a", weight: 10}
	lane := func(runnable bool, running, issued int, tn *tenant) *Lane {
		return &Lane{runnable: runnable, running: running, tenant: tn, run: &metrics.Run{IssuedJobs: issued}}
	}
	tn := func(name string, weight, running int) *tenant {
		return &tenant{name: name, weight: weight, running: running}
	}
	cases := []struct {
		name  string
		lanes []*Lane
		want  int // index into lanes; -1 = none
	}{
		{"no lanes", nil, -1},
		{"nothing runnable", []*Lane{lane(false, 0, 0, nil), lane(false, 3, 9, nil)}, -1},
		{"one lane is the lane", []*Lane{lane(true, 7, 99, nil)}, 0},
		{"fewest running", []*Lane{lane(true, 2, 0, nil), lane(true, 1, 50, nil), lane(true, 3, 0, nil)}, 1},
		{"tie to fewest issued", []*Lane{lane(true, 1, 8, nil), lane(true, 1, 5, nil)}, 1},
		{"full tie to registration order", []*Lane{lane(true, 1, 5, nil), lane(true, 1, 5, nil)}, 0},
		{"barrier and paused lanes are skipped", []*Lane{lane(false, 0, 0, nil), lane(true, 4, 40, nil)}, 1},
		// A lane holding relaunch jobs stays runnable whatever its budget
		// says, so it wins on the usual counts.
		{"relaunch lane competes as runnable", []*Lane{lane(true, 2, 100, nil), lane(true, 0, 100, nil)}, 1},
		// Cross-tenant: running/weight, compared without division.
		{"equal weights, lower tenant load", []*Lane{lane(true, 2, 0, tn("a", 1, 2)), lane(true, 1, 0, tn("b", 1, 1))}, 1},
		{"equal weights, ratio tie to smaller name", []*Lane{lane(true, 1, 0, tn("b", 1, 1)), lane(true, 1, 0, tn("a", 1, 1))}, 1},
		{"3:1 heavy tenant below share wins", []*Lane{lane(true, 2, 0, tn("a", 3, 2)), lane(true, 1, 0, tn("b", 1, 1))}, 0},
		{"3:1 heavy tenant at share loses", []*Lane{lane(true, 3, 0, tn("a", 3, 3)), lane(true, 0, 0, tn("b", 1, 0))}, 1},
		{"3:1 exact ratio tie to smaller name", []*Lane{lane(true, 3, 0, tn("a", 3, 3)), lane(true, 1, 0, tn("b", 1, 1))}, 0},
		// Starvation-freedom: an idle tenant has ratio zero and cannot
		// lose to one with work in flight, however lopsided the weights.
		{"10:1 idle light tenant wins", []*Lane{lane(true, 1, 0, tn("a", 10, 1)), lane(true, 0, 0, tn("b", 1, 0))}, 1},
		{"untenanted lanes weigh 1", []*Lane{lane(true, 1, 0, tn("team", 2, 1)), lane(true, 0, 0, tn("", 1, 0))}, 1},
		// Within a tenant the one-level rule applies, on the lane's own
		// counts; the tenant's load spans all its lanes.
		{"intra-tenant fewest running", []*Lane{lane(true, 2, 0, a10), lane(true, 1, 0, a10), lane(true, 9, 0, tn("b", 1, 9))}, 1},
		{"tenant load counts unrunnable lanes", []*Lane{lane(false, 4, 0, tn("a", 1, 4)), lane(true, 0, 0, tn("a", 1, 4)), lane(true, 3, 0, tn("b", 1, 3))}, 2},
	}
	for _, tc := range cases {
		got := -1
		if p := pick(tc.lanes); p != nil {
			for i, l := range tc.lanes {
				if l == p {
					got = i
				}
			}
		}
		if got != tc.want {
			t.Errorf("%s: picked lane %d, want %d", tc.name, got, tc.want)
		}
	}
}

// stubExec is a multi-lane executor for engine tests: Launch queues the
// job's completion at once (or holds it, for lanes listed in hold), and
// Await hands the queue over. One value is both root and every lane's
// view; the lane id travels in the view wrapper.
type stubExec struct {
	capacity int
	queue    []Completion
	hold     map[int]bool
	held     []Completion
	failLane int                          // jobs of this lane complete with an objective error
	onLaunch func(lane int, job core.Job) // when set, sees every launch first
	awaits   int
}

type stubView struct {
	*stubExec
	lane int
}

func (s *stubExec) view(lane int) stubView { return stubView{s, lane} }

func (v stubView) Launch(job core.Job) {
	if v.onLaunch != nil {
		v.onLaunch(v.lane, job)
	}
	c := Completion{Job: job, Lane: v.lane, Loss: float64(job.TrialID), Resource: job.TargetResource}
	switch {
	case v.lane == v.failLane:
		c.Err = errBoom
		v.queue = append(v.queue, c)
	case v.hold[v.lane]:
		v.held = append(v.held, c)
	default:
		v.queue = append(v.queue, c)
	}
}

var errBoom = errors.New("boom")

func (s *stubExec) Capacity() int { return s.capacity }
func (s *stubExec) Launch(core.Job) {
	panic("launch through a view")
}
func (s *stubExec) Await(ctx context.Context) ([]Completion, error) {
	if len(s.queue) == 0 {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	batch := s.queue
	s.queue = nil
	s.awaits++
	return batch, nil
}
func (s *stubExec) Now() float64 { return 0 }
func (s *stubExec) Close() error { return nil }
func (s *stubExec) Stats() Stats { return Stats{} }
func randomSched(seed uint64) *core.Gate {
	space := searchspace.New(searchspace.Param{Name: "x", Type: searchspace.Uniform, Lo: 0, Hi: 1})
	return core.NewGate(core.NewRandomSearch(core.RandomSearchConfig{Space: space, RNG: xrand.New(seed), MaxResource: 1}))
}

// TestEngineLaneIsolation runs three lanes over one executor: an
// objective error fails its lane alone, the others spend their budgets,
// and the quota tallies return to zero.
func TestEngineLaneIsolation(t *testing.T) {
	ex := &stubExec{capacity: 4, failLane: 1}
	e := NewEngine(ex, map[string]int{"a": 3})
	var lanes []*Lane
	for i, tenant := range []string{"a", "b", "a"} {
		g := randomSched(uint64(i + 1))
		lanes = append(lanes, e.AddLane(g, ex.view(e.NextLane()), Options{MaxJobs: 20, Gate: g}, i, tenant))
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, l := range lanes {
		run, err := l.Result()
		if i == 1 {
			if !errors.Is(err, errBoom) {
				t.Errorf("lane 1: error %v, want boom", err)
			}
			continue
		}
		if err != nil || run.CompletedJobs != 20 {
			t.Errorf("lane %d: completed %d jobs, error %v; want 20, nil", i, run.CompletedJobs, err)
		}
	}
	for name, tn := range e.tenants {
		if tn.running != 0 {
			t.Errorf("tenant %q ends with %d running", name, tn.running)
		}
	}
}

// TestEngineRetireDiscardsAndRanks retires a lane with jobs in flight
// from a control command: their completions must reach neither its
// scheduler nor its counters, a lane added in its place gets a fresh id
// and its old rank, and the run still ends cleanly.
func TestEngineRetireDiscardsAndRanks(t *testing.T) {
	ex := &stubExec{capacity: 4, failLane: -1, hold: map[int]bool{0: true}}
	e := NewEngine(ex, nil)
	g0, g1 := randomSched(1), randomSched(2)
	l0 := e.AddLane(g0, ex.view(e.NextLane()), Options{MaxJobs: 6, Gate: g0}, 0, "")
	l1 := e.AddLane(g1, ex.view(e.NextLane()), Options{MaxJobs: 50, Gate: g1}, 1, "")
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()

	var readded *Lane
	notYet := errors.New("lane 0 has not launched yet")
	retire := func() error {
		if l0.running == 0 {
			return notYet
		}
		e.Retire(l0)
		ex.queue = append(ex.queue, ex.held...) // the retired lane's jobs settle late
		ex.held, ex.hold = nil, nil
		g := randomSched(1)
		readded = e.AddLane(g, ex.view(e.NextLane()), Options{MaxJobs: 6, Gate: g}, 0, "")
		return nil
	}
	for err := notYet; err != nil; {
		if err = e.Do(retire); err != nil && err != notYet {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if run, _ := l0.Result(); run.CompletedJobs != 0 {
		t.Errorf("retired lane ingested %d completions", run.CompletedJobs)
	}
	if readded.id != 2 || e.order[0] != readded {
		t.Errorf("re-added lane has id %d at order %v; want a fresh id 2, first by rank", readded.id, e.order)
	}
	for _, l := range []*Lane{readded, l1} {
		if run, err := l.Result(); err != nil || run.CompletedJobs != l.opt.MaxJobs {
			t.Errorf("lane %d: completed %d of %d, error %v", l.id, run.CompletedJobs, l.opt.MaxJobs, err)
		}
	}
	if err := e.Do(func() error { return nil }); !errors.Is(err, ErrEnded) {
		t.Errorf("Do after the run: %v, want ErrEnded", err)
	}
}

// TestEngineDoNeverLosesAWakeup hammers Do from two goroutines against
// an engine whose Await returns only when its context is cancelled (the
// one job in flight never settles): a command queued while the engine is
// between its control check and Await must still wake it.
func TestEngineDoNeverLosesAWakeup(t *testing.T) {
	ex := &stubExec{capacity: 1, failLane: -1, hold: map[int]bool{0: true}}
	e := NewEngine(ex, nil)
	g := randomSched(1)
	e.AddLane(g, ex.view(e.NextLane()), Options{MaxJobs: 1, Gate: g}, 0, "")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx) }()

	const callers, calls = 2, 20000
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			for i := 0; i < calls; i++ {
				if err := e.Do(func() error { return nil }); err != nil {
					errs <- fmt.Errorf("call %d: %w", i, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < callers; c++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("Do hung: a queued command did not wake the engine")
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestEngineDoAnswersTheCommandThatEndsTheRun: a command that ends the
// run (an abort of the last experiment that could still run) has run,
// so Do returns its answer, not ErrEnded, however the caller's wake-up
// races the engine's exit.
func TestEngineDoAnswersTheCommandThatEndsTheRun(t *testing.T) {
	for i := 0; i < 20000; i++ {
		e := NewEngine(&stubExec{capacity: 1, failLane: -1}, nil)
		e.Dormant = 1
		done := make(chan error, 1)
		go func() { done <- e.Run(context.Background()) }()
		if err := e.Do(func() error { e.Dormant--; return nil }); err != nil {
			t.Fatalf("run %d: the command that ended the run answered %v", i, err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// journalSink is the writer under a test lane's journal: it keeps the
// image, counts calls, and can fail its k-th Write — wholly, or by
// taking half the bytes with a nil error — or its k-th Sync.
type journalSink struct {
	image                           []byte
	writes, syncs                   int
	failWrite, shortWrite, failSync int // which call fails; 0 = none

	at               int // the image length committed was built at
	issued, reported map[[2]int]bool
	snaps            int
}

func (w *journalSink) Write(p []byte) (int, error) {
	switch w.writes++; w.writes {
	case w.failWrite:
		return 0, errors.New("injected write failure")
	case w.shortWrite:
		w.image = append(w.image, p[:len(p)/2]...)
		return len(p) / 2, nil
	}
	w.image = append(w.image, p...)
	return len(p), nil
}

func (w *journalSink) Sync() error {
	if w.syncs++; w.syncs == w.failSync {
		return errors.New("injected sync failure")
	}
	return nil
}

// committed recovers the image, once per growth, into the sets of
// (trial, rung) pairs whose issue and report records are in the file.
func (w *journalSink) committed(t *testing.T) {
	if w.at == len(w.image) {
		return
	}
	rec, err := state.Recover(w.image)
	if err != nil {
		t.Fatal(err)
	}
	w.at, w.issued, w.reported, w.snaps = len(w.image), map[[2]int]bool{}, map[[2]int]bool{}, 0
	for _, r := range rec.Records {
		switch {
		case r.Issue != nil:
			w.issued[[2]int{r.Issue.Trial, r.Issue.Rung}] = true
		case r.Report != nil:
			w.reported[[2]int{r.Report.Trial, r.Report.Rung}] = true
		case r.Snap != nil:
			w.snaps++
		}
	}
}

// journaledLanes adds n journaled random-search lanes of the given
// budget to an engine over ex, each syncing every flush to its own sink,
// and has the test fail on any launch or delivery whose record is not
// yet in the file.
func journaledLanes(t *testing.T, e *Engine, ex *stubExec, n, jobs int) ([]*Lane, []*journalSink) {
	t.Helper()
	sinks := make([]*journalSink, n)
	lanes := make([]*Lane, n)
	ex.onLaunch = func(lane int, job core.Job) {
		if sinks[lane].committed(t); !sinks[lane].issued[[2]int{job.TrialID, job.Rung}] {
			t.Errorf("lane %d: trial %d rung %d launched before its issue record was written", lane, job.TrialID, job.Rung)
		}
	}
	for i := range lanes {
		sink := &journalSink{}
		j, err := state.NewWriter(sink, state.Meta{Experiment: fmt.Sprint("lane", i), Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		j.SyncEach = true
		g := randomSched(uint64(i + 1))
		sinks[i] = sink
		lanes[i] = e.AddLane(g, ex.view(e.NextLane()), Options{MaxJobs: jobs, Gate: g, Journal: j, SnapshotEvery: 8,
			OnResult: func(res core.Result, _ core.Best, _ bool) {
				if sink.committed(t); !sink.reported[[2]int{res.TrialID, res.Rung}] {
					t.Errorf("trial %d rung %d delivered before its report record was written", res.TrialID, res.Rung)
				}
			}}, i, "a")
	}
	return lanes, sinks
}

// TestEngineGroupCommit runs 64 journaled lanes over one executor: no
// job launches and no result is delivered before the Write holding its
// record returned, and each lane writes at most once per fill, once per
// batch and once per snapshot — under one Write per job where a record
// per Write made it two.
func TestEngineGroupCommit(t *testing.T) {
	const lanes, jobs = 64, 100
	ex := &stubExec{capacity: 4 * lanes, failLane: -1}
	e := NewEngine(ex, nil)
	ls, sinks := journaledLanes(t, e, ex, lanes, jobs)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	writes := 0
	for i, l := range ls {
		if run, err := l.Result(); err != nil || run.CompletedJobs != jobs {
			t.Fatalf("lane %d: completed %d jobs, error %v", i, run.CompletedJobs, err)
		}
		sink := sinks[i]
		sink.committed(t)
		if len(sink.issued) != jobs || len(sink.reported) != jobs {
			t.Errorf("lane %d: journal holds %d issues and %d reports, want %d of each", i, len(sink.issued), len(sink.reported), jobs)
		}
		if most := 1 + (ex.awaits + 1) + ex.awaits + sink.snaps; sink.writes > most || sink.syncs != sink.writes-1 { // the meta went out before SyncEach was set
			t.Errorf("lane %d: %d writes and %d syncs over %d batches and %d snapshots; want at most %d, a sync each past the meta",
				i, sink.writes, sink.syncs, ex.awaits, sink.snaps, most)
		}
		writes += sink.writes
	}
	if writes >= lanes*jobs {
		t.Errorf("%d writes for %d jobs; want fewer than one per job", writes, lanes*jobs)
	}
}

// TestEngineFlushFailureEndsItsLaneOnly fails the first lane's journal
// at each of its first writes — issue flushes, report flushes and
// snapshots alike — in each of three ways. The lane ends with the
// journal's error, every job it counted was launched and every slot it
// held is given back, and the second lane spends its whole budget.
func TestEngineFlushFailureEndsItsLaneOnly(t *testing.T) {
	const jobs = 40
	for _, mode := range []string{"write error", "short write", "sync error"} {
		for k := 2; k <= 9; k++ { // call 1 wrote the meta
			// With one slot, the failed lane's rollback empties the engine
			// while the other lane still has everything to do.
			ex := &stubExec{capacity: 1 + 5*(k%2), failLane: -1}
			e := NewEngine(ex, map[string]int{"a": 1})
			ls, sinks := journaledLanes(t, e, ex, 2, jobs)
			switch mode {
			case "write error":
				sinks[0].failWrite = k
			case "short write":
				sinks[0].shortWrite = k
			default:
				sinks[0].failSync = k
			}
			launched := 0
			check := ex.onLaunch
			ex.onLaunch = func(lane int, job core.Job) {
				if check(lane, job); lane == 0 {
					launched++
				}
			}
			if err := e.Run(context.Background()); err != nil {
				t.Fatalf("%s at call %d: run: %v", mode, k, err)
			}
			run, err := ls[0].Result()
			if err == nil || !strings.Contains(err.Error(), "journal") {
				t.Errorf("%s at call %d: failed lane's error is %v", mode, k, err)
			}
			if run.IssuedJobs != launched || run.IssuedJobs >= jobs || ls[0].running != 0 {
				t.Errorf("%s at call %d: failed lane counts %d issued, %d running; %d launched", mode, k, run.IssuedJobs, ls[0].running, launched)
			}
			if run, err := ls[1].Result(); err != nil || run.CompletedJobs != jobs {
				t.Errorf("%s at call %d: the other lane completed %d of %d jobs, error %v", mode, k, run.CompletedJobs, jobs, err)
			}
			if e.inflight != 0 || e.tenants["a"].running != 0 {
				t.Errorf("%s at call %d: run ends with %d in flight, tenant running %d", mode, k, e.inflight, e.tenants["a"].running)
			}
		}
	}
}
