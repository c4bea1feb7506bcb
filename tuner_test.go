package asha

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testObjective(_ context.Context, cfg Config, from, to float64, state interface{}) (float64, interface{}, error) {
	floor := math.Abs(math.Log10(cfg["lr"])+2) * 0.1
	loss := 2.0
	if s, ok := state.(float64); ok {
		loss = s
	}
	loss = floor + (loss-floor)*math.Exp(-0.1*(to-from))
	return loss, loss, nil
}

func testSpace() *Space {
	return NewSpace(
		LogUniform("lr", 1e-5, 1),
		Uniform("momentum", 0, 1),
		Choice("batch", 32, 64, 128),
		Int("layers", 1, 4),
	)
}

func TestTunerASHAFindsGoodConfig(t *testing.T) {
	tuner := New(testSpace(), testObjective, ASHA{Eta: 3, MinResource: 1, MaxResource: 81},
		WithWorkers(4), WithMaxJobs(1500), WithSeed(3))
	res, err := tuner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestLoss > 0.3 {
		t.Fatalf("best loss %v; ASHA failed to optimize", res.BestLoss)
	}
	if res.CompletedJobs != 1500 {
		t.Fatalf("completed %d jobs, want 1500", res.CompletedJobs)
	}
	if res.Trials == 0 || res.TotalResource == 0 {
		t.Fatalf("empty accounting: %+v", res)
	}
	if lr := res.BestConfig["lr"]; lr < 1e-3 || lr > 1e-1 {
		t.Fatalf("best lr %v far from the optimum 1e-2", lr)
	}
}

func TestTunerHistoryMonotone(t *testing.T) {
	tuner := New(testSpace(), testObjective, ASHA{Eta: 3, MinResource: 1, MaxResource: 27},
		WithWorkers(2), WithMaxJobs(300))
	res, err := tuner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history")
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Loss > res.History[i-1].Loss {
			t.Fatal("incumbent history not non-increasing")
		}
	}
}

func TestTunerAllAlgorithms(t *testing.T) {
	algos := map[string]Algorithm{
		"asha":      ASHA{Eta: 3, MinResource: 1, MaxResource: 27},
		"sha":       SHA{N: 27, Eta: 3, MinResource: 1, MaxResource: 27},
		"hyperband": Hyperband{Eta: 3, MinResource: 1, MaxResource: 27},
		"async-hb":  AsyncHyperband{Eta: 3, MinResource: 1, MaxResource: 27},
		"random":    RandomSearch{MaxResource: 27},
		"pbt":       PBT{Population: 8, Step: 9, MaxResource: 27},
		"bohb":      BOHB{N: 27, Eta: 3, MinResource: 1, MaxResource: 27},
		"modelasha": ModelASHA{Eta: 3, MinResource: 1, MaxResource: 27},
		"gp":        GPOptimizer{MaxResource: 27},
	}
	for name, algo := range algos {
		algo := algo
		t.Run(name, func(t *testing.T) {
			tuner := New(testSpace(), testObjective, algo,
				WithWorkers(4), WithMaxJobs(400), WithSeed(5))
			res, err := tuner.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.BestLoss >= 2.0 {
				t.Fatalf("%s made no progress: %v", name, res.BestLoss)
			}
		})
	}
}

func TestTunerSingleBracketSHAFinishes(t *testing.T) {
	// A single SHA bracket is Done after 27+9+3+1 = 40 jobs; the run
	// must end on its own without a job budget.
	tuner := New(testSpace(), testObjective, SHA{N: 27, Eta: 3, MinResource: 1, MaxResource: 27, SingleBracket: true},
		WithWorkers(4), WithMaxJobs(10000))
	done := make(chan *Result, 1)
	go func() {
		res, err := tuner.Run(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res != nil && res.CompletedJobs != 40 {
			t.Fatalf("completed %d jobs, want 40", res.CompletedJobs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("single-bracket run did not terminate")
	}
}

func TestTunerProgressCallback(t *testing.T) {
	var calls int64
	tuner := New(testSpace(), testObjective, RandomSearch{MaxResource: 10},
		WithWorkers(2), WithMaxJobs(25),
		WithProgress(func(p Progress) { atomic.AddInt64(&calls, 1) }))
	if _, err := tuner.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 25 {
		t.Fatalf("progress callback fired %d times, want 25", calls)
	}
}

func TestTunerValidation(t *testing.T) {
	obj := testObjective
	cases := []struct {
		name  string
		tuner *Tuner
	}{
		{"nil space", New(nil, obj, RandomSearch{MaxResource: 1}, WithMaxJobs(1))},
		{"nil objective", New(testSpace(), nil, RandomSearch{MaxResource: 1}, WithMaxJobs(1))},
		{"nil algorithm", New(testSpace(), obj, nil, WithMaxJobs(1))},
		{"zero workers", New(testSpace(), obj, RandomSearch{MaxResource: 1}, WithMaxJobs(1), WithWorkers(0))},
		{"unbounded", New(testSpace(), obj, RandomSearch{MaxResource: 1})},
	}
	for _, c := range cases {
		if _, err := c.tuner.Run(context.Background()); err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
}

// TestTunerRefusesUnboundedBeforeBuild: a run with no budget is refused
// before its backend starts, so a Remote never binds its lease server nor
// announces it (which is where callers spawn their workers).
func TestTunerRefusesUnboundedBeforeBuild(t *testing.T) {
	var announced []string
	rem := Remote{OnListen: func(url string) { announced = append(announced, url) }}
	tuner := New(testSpace(), nil, RandomSearch{MaxResource: 1}, WithBackend(rem))
	_, err := tuner.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "asha: unbounded run") {
		t.Fatalf("unbounded run: err = %v, want the unbounded-run refusal", err)
	}
	if len(announced) > 0 {
		t.Fatalf("refused run announced a lease server at %s", announced[0])
	}
}

func TestTunerContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n int64
	obj := func(ctx context.Context, cfg Config, from, to float64, state interface{}) (float64, interface{}, error) {
		if atomic.AddInt64(&n, 1) > 50 {
			cancel()
		}
		return 1, nil, nil
	}
	tuner := New(testSpace(), obj, RandomSearch{MaxResource: 5}, WithWorkers(4))
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Cancellation ends the run; the incumbent may or may not exist.
		_, _ = tuner.Run(ctx)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop on cancellation")
	}
}

func TestSpaceConstructors(t *testing.T) {
	s := testSpace()
	if s.Dim() != 4 {
		t.Fatalf("dim %d", s.Dim())
	}
	p, ok := s.Param("batch")
	if !ok || len(p.Choices) != 3 {
		t.Fatal("choice param mangled")
	}
	if p, _ := s.Param("layers"); p.Lo != 1 || p.Hi != 4 {
		t.Fatal("int param mangled")
	}
}

func TestTunerDeterministicBestWithOneWorker(t *testing.T) {
	run := func() float64 {
		tuner := New(testSpace(), testObjective, ASHA{Eta: 3, MinResource: 1, MaxResource: 27},
			WithWorkers(1), WithMaxJobs(200), WithSeed(9))
		res, err := tuner.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.BestLoss
	}
	if run() != run() {
		t.Fatal("single-worker runs with the same seed disagree")
	}
}
