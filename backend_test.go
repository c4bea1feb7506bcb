package asha

// Backend tests: the parity guards for the execution-layer unification
// (the same scheduler + seed must make identical promotion decisions on
// the goroutine, simulated and remote backends), plus end-to-end
// coverage that one unchanged ASHA configuration runs on every backend
// via WithBackend. The subprocess backend re-executes this test binary
// as its worker (see TestMain in worker_main_test.go); the remote
// backend serves in-process worker agents over real loopback HTTP.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// jobRecord is one completed job as seen through WithProgress.
type jobRecord struct {
	TrialID  int
	Rung     int
	Loss     float64
	Resource float64
}

// runRecorded runs one single-worker tuning run and records the exact
// completion sequence. One worker makes both backends sequential and
// deterministic, so the sequences are comparable event for event.
func runRecorded(t *testing.T, bench *workload.Benchmark, obj Objective, b Backend, maxJobs int) ([]jobRecord, *Result) {
	t.Helper()
	var seq []jobRecord
	tuner := New(bench.Space(), obj, ASHA{
		Eta:         4,
		MinResource: bench.MaxResource() / 256,
		MaxResource: bench.MaxResource(),
	},
		WithBackend(b),
		WithWorkers(1),
		WithSeed(7),
		WithMaxJobs(maxJobs),
		WithProgress(func(p Progress) {
			seq = append(seq, jobRecord{TrialID: p.TrialID, Rung: p.Rung, Loss: p.Loss, Resource: p.Resource})
		}),
	)
	res, err := tuner.Run(context.Background())
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return seq, res
}

// TestBackendParityPromotionDecisions is the guard for the execution
// unification refactor: an identical ASHA configuration and seed must
// produce identical promotion decisions — the same trials trained at the
// same rungs with the same losses, in the same order — whether jobs run
// on real goroutine workers or inside the discrete-event simulator.
// BenchmarkObjective keys trial noise by the scheduler-assigned trial ID
// (TrialIDFromContext), exactly as the simulator does, so even the noisy
// observed losses must agree bit for bit.
func TestBackendParityPromotionDecisions(t *testing.T) {
	const maxJobs = 300
	bench := workload.CudaConvnet()
	simSeq, simRes := runRecorded(t, bench, nil, Simulation{Benchmark: bench}, maxJobs)
	gorSeq, gorRes := runRecorded(t, bench, BenchmarkObjective(bench), GoroutinePool{}, maxJobs)

	if len(simSeq) != len(gorSeq) {
		t.Fatalf("backends completed different job counts: sim %d vs goroutine %d", len(simSeq), len(gorSeq))
	}
	for i := range simSeq {
		if simSeq[i] != gorSeq[i] {
			t.Fatalf("job %d diverged:\n  sim       %+v\n  goroutine %+v", i, simSeq[i], gorSeq[i])
		}
	}

	// Same jobs implies the same rung contents; cross-check the rung
	// membership explicitly (trial sets per rung).
	simRungs := rungContents(simSeq)
	gorRungs := rungContents(gorSeq)
	if fmt.Sprint(simRungs) != fmt.Sprint(gorRungs) {
		t.Fatalf("rung contents diverged:\n  sim       %v\n  goroutine %v", simRungs, gorRungs)
	}

	if simRes.BestLoss != gorRes.BestLoss {
		t.Fatalf("incumbents diverged: sim %v vs goroutine %v", simRes.BestLoss, gorRes.BestLoss)
	}
	if simRes.Trials != gorRes.Trials || simRes.TotalResource != gorRes.TotalResource {
		t.Fatalf("accounting diverged: sim (%d, %v) vs goroutine (%d, %v)",
			simRes.Trials, simRes.TotalResource, gorRes.Trials, gorRes.TotalResource)
	}
}

// rungContents maps rung -> sorted trial IDs that completed a job there.
func rungContents(seq []jobRecord) map[int][]int {
	rungs := make(map[int]map[int]bool)
	for _, r := range seq {
		if rungs[r.Rung] == nil {
			rungs[r.Rung] = make(map[int]bool)
		}
		rungs[r.Rung][r.TrialID] = true
	}
	out := make(map[int][]int, len(rungs))
	for k, set := range rungs {
		for id := range set {
			out[k] = insertSorted(out[k], id)
		}
	}
	return out
}

func insertSorted(xs []int, v int) []int {
	i := 0
	for i < len(xs) && xs[i] < v {
		i++
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// remoteParityObjective is deterministic, depends only on its inputs,
// and keeps JSON-friendly state (the current loss as a float64), so it
// produces bit-identical losses whether it runs in-process, in a worker
// process or on the other side of a lease. The loss it reports also
// carries what the objective boundary handed it beyond the two values
// the curve uses — the trial ID in ctx, how many keys cfg holds, the
// third parameter — so an executor slot that hands over a stale ID, a
// stale key or a wrong value diverges from the others in the recorded
// sequence.
func remoteParityObjective(ctx context.Context, cfg Config, from, to float64, state interface{}) (float64, interface{}, error) {
	id, ok := TrialIDFromContext(ctx)
	if !ok {
		return 0, nil, errors.New("the objective's context carries no trial ID")
	}
	loss := 3.0
	if s, ok := state.(float64); ok {
		loss = s
	}
	floor := 0.05 + 0.3*math.Abs(math.Log10(cfg["lr"])+2) + 0.2*math.Abs(cfg["momentum"]-0.7)
	loss = floor + (loss-floor)*math.Exp(-0.1*(to-from))
	seen := float64(id) + 1e3*float64(len(cfg)) + cfg["width"]
	return loss + 1e-9*seen, loss, nil
}

// runRecordedRemoteParity runs one single-worker ASHA run on the given
// backend and records the exact completion sequence, as runRecorded
// does, but over a plain search space with remoteParityObjective.
func runRecordedRemoteParity(t *testing.T, b Backend, obj Objective, maxJobs int) ([]jobRecord, *Result) {
	t.Helper()
	space := NewSpace(
		LogUniform("lr", 1e-4, 1),
		Uniform("momentum", 0, 1),
		Choice("width", 64, 128, 256, 512),
	)
	var seq []jobRecord
	tuner := New(space, obj, ASHA{Eta: 2, MinResource: 1, MaxResource: 64},
		WithBackend(b),
		WithWorkers(1),
		WithSeed(11),
		WithMaxJobs(maxJobs),
		WithProgress(func(p Progress) {
			seq = append(seq, jobRecord{TrialID: p.TrialID, Rung: p.Rung, Loss: p.Loss, Resource: p.Resource})
		}),
	)
	res, err := tuner.Run(context.Background())
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return seq, res
}

// sameRun fails the test unless the named backend's run made the
// goroutine pool's decisions: the same jobs with the same losses in the
// same order, the same incumbent, the same accounting.
func sameRun(t *testing.T, name string, seq, gorSeq []jobRecord, res, gorRes *Result) {
	t.Helper()
	if len(seq) != len(gorSeq) {
		t.Fatalf("backends completed different job counts: %s %d vs goroutine %d", name, len(seq), len(gorSeq))
	}
	for i := range seq {
		if seq[i] != gorSeq[i] {
			t.Fatalf("job %d diverged:\n  %s %+v\n  goroutine %+v", i, name, seq[i], gorSeq[i])
		}
	}
	if res.BestLoss != gorRes.BestLoss {
		t.Fatalf("incumbents diverged: %s %v vs goroutine %v", name, res.BestLoss, gorRes.BestLoss)
	}
	if res.Trials != gorRes.Trials || res.TotalResource != gorRes.TotalResource {
		t.Fatalf("accounting diverged: %s (%d, %v) vs goroutine (%d, %v)",
			name, res.Trials, res.TotalResource, gorRes.Trials, gorRes.TotalResource)
	}
}

// TestRemoteBackendParityPromotionDecisions extends the backend-parity
// guard to the two paths that leave the process: the same ASHA
// configuration and seed must make bit-identical promotion decisions
// whether jobs run on an in-process goroutine pool, in a worker process
// over the binary pipe frames, or travel to a worker over the loopback
// lease stream — leases, JSON checkpoints and all. Each of the three fills the
// objective's context and config from a reused per-slot scratch, and
// remoteParityObjective reports what it was handed.
func TestRemoteBackendParityPromotionDecisions(t *testing.T) {
	const maxJobs = 200
	gorSeq, gorRes := runRecordedRemoteParity(t, GoroutinePool{}, remoteParityObjective, maxJobs)

	sub := workerBackend(t).(Subprocess)
	sub.Env = []string{"ASHA_TEST_WORKER=parity"}
	subSeq, subRes := runRecordedRemoteParity(t, sub, nil, maxJobs)
	sameRun(t, "subprocess", subSeq, gorSeq, subRes, gorRes)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agentErr := make(chan error, 1)
	rem := Remote{OnListen: func(url string) {
		go func() {
			agentErr <- ServeRemoteWorker(ctx, RemoteWorker{
				Server: url, Name: "parity", Slots: 1, Objective: remoteParityObjective,
			})
		}()
	}}
	remSeq, remRes := runRecordedRemoteParity(t, rem, nil, maxJobs)
	sameRun(t, "remote", remSeq, gorSeq, remRes, gorRes)
	if err := <-agentErr; err != nil {
		t.Fatalf("worker agent: %v", err)
	}
}

// TestBatchedRemoteBackendParityPromotionDecisions extends the remote
// parity guard to the batched protocol: with BatchSize>1 and Prefetch>1
// every job and result still travels in multi-job frames
// (single-worker capacity keeps the decision stream sequential), and
// the promotion decisions must stay bit-identical to the in-process
// goroutine pool — batching amortizes round trips, it must never
// reorder or alter what the scheduler sees.
func TestBatchedRemoteBackendParityPromotionDecisions(t *testing.T) {
	const maxJobs = 200
	gorSeq, gorRes := runRecordedRemoteParity(t, GoroutinePool{}, remoteParityObjective, maxJobs)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agentErr := make(chan error, 1)
	rem := Remote{
		BatchSize:     4,
		Prefetch:      4,
		FlushInterval: 5 * time.Millisecond,
		OnListen: func(url string) {
			go func() {
				agentErr <- ServeRemoteWorker(ctx, RemoteWorker{
					Server: url, Name: "batched-parity", Slots: 1,
					// The batching runs at the server's advert.
					Objective: remoteParityObjective,
				})
			}()
		},
	}
	remSeq, remRes := runRecordedRemoteParity(t, rem, nil, maxJobs)

	sameRun(t, "batched remote", remSeq, gorSeq, remRes, gorRes)
	if err := <-agentErr; err != nil {
		t.Fatalf("worker agent: %v", err)
	}
}

// TestRemoteWorkerKilledMidJobRetriesOnLateJoiner is the public-API
// crash-tolerance test: worker A leases a job and dies mid-training
// (its heartbeats stop, so the lease expires); worker B joins only
// after the run is already underway and must execute A's job exactly
// once along with the rest of the budget.
func TestRemoteWorkerKilledMidJobRetriesOnLateJoiner(t *testing.T) {
	const maxJobs = 30
	victimLeased := make(chan struct{})
	var victimOnce sync.Once
	var victimMu sync.Mutex
	var victimTrial int
	var victimTo float64

	actxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	// Worker A records the job it leased, then hangs until it is killed.
	objA := func(ctx context.Context, cfg Config, from, to float64, state interface{}) (float64, interface{}, error) {
		id, _ := TrialIDFromContext(ctx)
		victimMu.Lock()
		victimTrial, victimTo = id, to
		victimMu.Unlock()
		victimOnce.Do(func() { close(victimLeased) })
		<-ctx.Done()
		return 0, nil, ctx.Err()
	}

	bctx, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	var execMu sync.Mutex
	executed := make(map[string]int)
	objB := func(ctx context.Context, cfg Config, from, to float64, state interface{}) (float64, interface{}, error) {
		id, _ := TrialIDFromContext(ctx)
		execMu.Lock()
		executed[fmt.Sprintf("%d@%g", id, to)]++
		execMu.Unlock()
		return remoteParityObjective(ctx, cfg, from, to, state)
	}

	bDone := make(chan error, 1)
	rem := Remote{
		LeaseTTL: 250 * time.Millisecond,
		Token:    "fleet-secret",
		Metrics:  true,
		OnListen: func(url string) {
			go func() {
				_ = ServeRemoteWorker(actxA, RemoteWorker{
					Server: url, Token: "fleet-secret", Name: "doomed", Slots: 1, Objective: objA,
				})
			}()
			go func() {
				// B joins only once A's lease has already expired — well
				// into the run — so the retried job is waiting in the
				// queue when it connects and the whole remaining budget
				// (retry included) lands on it.
				<-victimLeased
				cancelA()
				// Join only after A's lease has actually expired: poll the
				// server's own expiry counter instead of sleeping past an
				// assumed TTL + sweep interval.
				waitForExpiredLease(url, bctx.Done())
				bDone <- ServeRemoteWorker(bctx, RemoteWorker{
					Server: url, Token: "fleet-secret", Name: "survivor", Slots: 2, Objective: objB,
				})
			}()
		},
	}
	space := NewSpace(LogUniform("lr", 1e-4, 1), Uniform("momentum", 0, 1))
	tuner := New(space, nil, ASHA{Eta: 2, MinResource: 1, MaxResource: 16},
		WithBackend(rem), WithWorkers(2), WithSeed(5), WithMaxJobs(maxJobs))
	res, err := tuner.Run(context.Background())
	if err != nil {
		t.Fatalf("fleet run failed: %v", err)
	}
	// One of the issued jobs was lost with worker A and retried: every
	// other launch completed.
	if res.CompletedJobs != maxJobs-1 {
		t.Fatalf("completed %d jobs, want %d (budget minus the one lost lease)", res.CompletedJobs, maxJobs-1)
	}
	if err := <-bDone; err != nil {
		t.Fatalf("survivor agent: %v", err)
	}
	victimMu.Lock()
	victim := fmt.Sprintf("%d@%g", victimTrial, victimTo)
	victimMu.Unlock()
	execMu.Lock()
	defer execMu.Unlock()
	for key, n := range executed {
		if n != 1 {
			t.Fatalf("job %s executed %d times on the survivor, want once", key, n)
		}
	}
	if executed[victim] != 1 {
		t.Fatalf("killed worker's job %s never retried on the survivor: %v", victim, executed)
	}
}

// TestSameConfigRunsOnAllBackends is the acceptance check for the
// pluggable-backend API: one unchanged asha.ASHA configuration runs on
// the goroutine pool, the subprocess pool, and the simulator purely by
// swapping WithBackend.
func TestSameConfigRunsOnAllBackends(t *testing.T) {
	bench := workload.CudaConvnet()
	algo := ASHA{Eta: 4, MinResource: bench.MaxResource() / 256, MaxResource: bench.MaxResource()}
	backends := map[string]Backend{
		"goroutine":  GoroutinePool{},
		"subprocess": workerBackend(t),
		"simulation": Simulation{Benchmark: bench},
	}
	for name, be := range backends {
		t.Run(name, func(t *testing.T) {
			obj := BenchmarkObjective(bench)
			if name == "subprocess" {
				obj = nil // the worker process computes losses itself
			}
			if name == "simulation" {
				obj = nil // the simulator trains surrogate trials itself
			}
			tuner := New(bench.Space(), obj, algo,
				WithBackend(be), WithWorkers(4), WithSeed(3), WithMaxJobs(120))
			res, err := tuner.Run(context.Background())
			if err != nil {
				t.Fatalf("%s backend failed: %v", name, err)
			}
			if res.CompletedJobs == 0 || res.Trials == 0 {
				t.Fatalf("%s backend did no work: %+v", name, res)
			}
			if res.BestLoss <= 0 || res.BestLoss > 3 {
				t.Fatalf("%s backend found implausible incumbent %v", name, res.BestLoss)
			}
		})
	}
}

// TestSubprocessCancelKillsInFlightWorkers guards the cancellation
// path: with workers stuck in a 30-second job, WithMaxDuration must end
// the run by killing the worker processes instead of waiting for their
// results.
func TestSubprocessCancelKillsInFlightWorkers(t *testing.T) {
	be := workerBackend(t).(Subprocess)
	be.Env = append(be.Env, "ASHA_TEST_WORKER_SLEEP_MS=30000")
	tuner := New(NewSpace(Uniform("x", 0, 1)), nil,
		RandomSearch{MaxResource: 1},
		WithBackend(be), WithWorkers(2), WithMaxDuration(200*time.Millisecond))
	start := time.Now()
	_, err := tuner.Run(context.Background())
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v; workers were waited for instead of killed", elapsed)
	}
	// No trial ever completes, so the run reports no incumbent — but it
	// must do so promptly and without a backend error.
	if err == nil || !strings.Contains(err.Error(), "no trials") {
		t.Fatalf("expected the no-trials error, got %v", err)
	}
}

// TestBenchmarkObjectiveInheritClones guards PBT semantics on real
// backends: when a job inherits a donor's state (different trial ID),
// the objective must rebuild from the donor's checkpoint instead of
// aliasing its live trial, so donor and heir train independently.
func TestBenchmarkObjectiveInheritClones(t *testing.T) {
	bench := workload.CudaConvnet()
	obj := BenchmarkObjective(bench)
	cfg := bench.Space().Sample(xrand.New(99)).Map()
	ctx1 := new(exec.Slot).Context(context.Background(), 1)
	_, state1, err := obj(ctx1, cfg, 0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	donor := state1.(*benchState)
	donorResource := donor.trial.Resource()

	// Trial 2 inherits trial 1's state (PBT exploit): must get its own
	// trial object at the donor's training position.
	ctx2 := new(exec.Slot).Context(context.Background(), 2)
	_, state2, err := obj(ctx2, cfg, 100, 200, state1)
	if err != nil {
		t.Fatal(err)
	}
	heir := state2.(*benchState)
	if heir.trial == donor.trial {
		t.Fatal("heir aliases the donor's live trial")
	}
	if heir.trial.ID != 2 {
		t.Fatalf("heir kept donor identity %d", heir.trial.ID)
	}
	if heir.trial.Resource() != 200 {
		t.Fatalf("heir trained to %v, want 200", heir.trial.Resource())
	}
	if donor.trial.Resource() != donorResource {
		t.Fatalf("training the heir advanced the donor: %v -> %v", donorResource, donor.trial.Resource())
	}
}

// TestSubprocessStateRoundTrips drives ASHA over real OS worker
// processes and verifies checkpoint state survives the JSON round trip:
// the worker objective records the resume point in its state and fails
// loudly on mismatch (see workerObjective in worker_main_test.go).
func TestSubprocessStateRoundTrips(t *testing.T) {
	tuner := New(NewSpace(
		Uniform("x", 0, 1),
		Uniform("y", 0, 1),
	), nil, ASHA{Eta: 2, MinResource: 1, MaxResource: 16},
		WithBackend(workerBackend(t)),
		WithWorkers(3),
		WithSeed(5),
		WithMaxJobs(80),
	)
	res, err := tuner.Run(context.Background())
	if err != nil {
		t.Fatalf("subprocess run failed: %v", err)
	}
	if res.CompletedJobs != 80 {
		t.Fatalf("completed %d jobs, want 80", res.CompletedJobs)
	}
}
