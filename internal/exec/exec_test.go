package exec

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/searchspace"
	"repro/internal/xrand"
)

func execSpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "x", Type: searchspace.Uniform, Lo: 0, Hi: 1},
		searchspace.Param{Name: "y", Type: searchspace.Uniform, Lo: 0, Hi: 1},
	)
}

// drive runs sched over a fresh pool of workers goroutines.
func drive(ctx context.Context, sched core.Scheduler, obj Objective, workers int, opt backend.Options) (*metrics.Run, error) {
	return backend.Drive(ctx, sched, NewPool(ctx, obj, workers), opt)
}

// quadObjective is a fast synthetic objective whose loss improves with
// resource toward a configuration-dependent floor.
func quadObjective(_ context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
	floor := math.Hypot(cfg["x"]-0.7, cfg["y"]-0.2)
	loss := floor + math.Exp(-to/8)
	return loss, loss, nil
}

func TestExecRunsASHAConcurrently(t *testing.T) {
	sched := core.NewASHA(core.ASHAConfig{
		Space:       execSpace(),
		RNG:         xrand.New(1),
		Eta:         3,
		MinResource: 1,
		MaxResource: 27,
	})
	run, err := drive(context.Background(), sched, quadObjective, 8, backend.Options{MaxJobs: 300})
	if err != nil {
		t.Fatal(err)
	}
	if run.CompletedJobs != 300 {
		t.Fatalf("completed %d jobs, want 300", run.CompletedJobs)
	}
	best, ok := sched.Best()
	if !ok {
		t.Fatal("no incumbent")
	}
	if best.Loss > 0.5 {
		t.Fatalf("ASHA on 8 goroutines found only %v", best.Loss)
	}
	if len(run.Series) == 0 {
		t.Fatal("no series recorded")
	}
}

func TestExecParallelismActuallyHappens(t *testing.T) {
	var inFlight, peak int64
	obj := func(ctx context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&inFlight, -1)
		return 1, nil, nil
	}
	sched := core.NewRandomSearch(core.RandomSearchConfig{Space: execSpace(), RNG: xrand.New(2), MaxResource: 1})
	if _, err := drive(context.Background(), sched, obj, 8, backend.Options{MaxJobs: 64}); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&peak) < 2 {
		t.Fatalf("peak concurrency %d; workers did not run in parallel", peak)
	}
}

func TestExecObjectiveErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	obj := func(ctx context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
		return 0, nil, boom
	}
	sched := core.NewRandomSearch(core.RandomSearchConfig{Space: execSpace(), RNG: xrand.New(3), MaxResource: 1})
	_, err := drive(context.Background(), sched, obj, 4, backend.Options{MaxJobs: 100})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("expected objective error, got %v", err)
	}
}

func TestExecContextCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls int64
	obj := func(ctx context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
		if atomic.AddInt64(&calls, 1) > 10 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return 1, nil, nil
	}
	sched := core.NewRandomSearch(core.RandomSearchConfig{Space: execSpace(), RNG: xrand.New(4), MaxResource: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := drive(ctx, sched, obj, 4, backend.Options{})
		if err != nil {
			t.Errorf("cancel should end the run cleanly, got %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
}

func TestExecMaxDurationStops(t *testing.T) {
	obj := func(ctx context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
		time.Sleep(time.Millisecond)
		return 1, nil, nil
	}
	sched := core.NewRandomSearch(core.RandomSearchConfig{Space: execSpace(), RNG: xrand.New(5), MaxResource: 1})
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := drive(ctx, sched, obj, 2, backend.Options{}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("MaxDuration not honored")
	}
}

func TestExecDrainsWhenSchedulerDone(t *testing.T) {
	// A single SHA bracket finishes; the executor must return instead of
	// hanging at the final barrier.
	sched := core.NewSHA(core.SHAConfig{
		Space: execSpace(), RNG: xrand.New(6),
		N: 9, Eta: 3, MinResource: 1, MaxResource: 9,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		run, err := drive(context.Background(), sched, quadObjective, 4, backend.Options{})
		if err != nil {
			t.Errorf("run error: %v", err)
			return
		}
		// 9 + 3 + 1 jobs in the bracket.
		if run.CompletedJobs != 13 {
			t.Errorf("completed %d jobs, want 13", run.CompletedJobs)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("executor hung after the bracket finished")
	}
	if !sched.Done() {
		t.Fatal("bracket not actually done")
	}
}

func TestExecStateThreadsThroughSteps(t *testing.T) {
	// Each trial's state must be handed back on the next rung: we store
	// the cumulative resource and verify from==state.
	var mu sync.Mutex
	violations := 0
	obj := func(ctx context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
		if state == nil {
			if from != 0 {
				mu.Lock()
				violations++
				mu.Unlock()
			}
		} else if state.(float64) != from {
			mu.Lock()
			violations++
			mu.Unlock()
		}
		return 1 / (1 + to), to, nil
	}
	sched := core.NewASHA(core.ASHAConfig{
		Space: execSpace(), RNG: xrand.New(7),
		Eta: 2, MinResource: 1, MaxResource: 16,
	})
	if _, err := drive(context.Background(), sched, obj, 4, backend.Options{MaxJobs: 200}); err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("%d checkpoint threading violations", violations)
	}
}

func TestExecOnResultCallback(t *testing.T) {
	var count int64
	sched := core.NewRandomSearch(core.RandomSearchConfig{Space: execSpace(), RNG: xrand.New(8), MaxResource: 1})
	_, err := drive(context.Background(), sched, quadObjective, 2, backend.Options{
		MaxJobs:  20,
		OnResult: func(res core.Result, best core.Best, ok bool) { atomic.AddInt64(&count, 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("OnResult fired %d times, want 20", count)
	}
}

func TestExecRejectsZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a pool of zero workers was built")
		}
	}()
	NewPool(context.Background(), quadObjective, 0)
}

func TestExecPBTInheritCopiesState(t *testing.T) {
	// Drive PBT through the executor and verify that exploited members
	// resume from their donor's state: the objective records each
	// trial's state lineage.
	sched := core.NewPBT(core.PBTConfig{
		Space:          execSpace(),
		RNG:            xrand.New(11),
		Population:     6,
		Step:           4,
		MaxResource:    32,
		TruncationFrac: 0.2,
	})
	var mu sync.Mutex
	inherits := 0
	obj := func(ctx context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
		// State is the donor's cumulative resource; a fresh member has
		// nil state and from == 0; an heir starts from the donor's
		// position, so from > 0 with matching state.
		if state != nil {
			if state.(float64) != from {
				t.Errorf("state %v does not match from %v", state, from)
			}
		} else if from != 0 {
			mu.Lock()
			inherits++ // inherited-but-nil cannot happen; counted as error
			mu.Unlock()
		}
		loss := math.Hypot(cfg["x"]-0.5, cfg["y"]-0.5) + 1/(1+to)
		return loss, to, nil
	}
	if _, err := drive(context.Background(), sched, obj, 3, backend.Options{MaxJobs: 60}); err != nil {
		t.Fatal(err)
	}
	if inherits != 0 {
		t.Fatalf("%d trials started mid-resource without donor state", inherits)
	}
}

func TestExecRunRecordsTotals(t *testing.T) {
	sched := core.NewRandomSearch(core.RandomSearchConfig{Space: execSpace(), RNG: xrand.New(12), MaxResource: 7})
	run, err := drive(context.Background(), sched, quadObjective, 2, backend.Options{MaxJobs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if run.Trials != 10 || run.TotalResource != 70 {
		t.Fatalf("accounting wrong: trials=%d resource=%v", run.Trials, run.TotalResource)
	}
}
