package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	asha "repro"
	"repro/internal/state"
)

// chunkResult is what one self-contained run of a workload reports. A
// chunk starts and stops everything it needs and returns only after all
// its goroutines have exited.
type chunkResult struct {
	jobs      int           // completed jobs: the denominator of every per-job metric
	attempted int           // jobs issued
	failed    int           // failed completions plus failed checks
	wall      time.Duration // the timed part of the chunk
	cpu       time.Duration // process CPU time over the timed part
	mallocs   uint64        // runtime.MemStats.Mallocs over the timed part
	bytes     uint64        // runtime.MemStats.TotalAlloc over the timed part
}

// chunkFn runs one chunk on inputs derived from seed.
type chunkFn func(seed uint64) chunkResult

// prepareFn generates a workload's inputs under dir and returns its
// chunk function.
type prepareFn func(seed uint64, dir string, smoke bool) (chunkFn, error)

// workload is one entry of BENCHMARK.json's "workloads".
type workload struct {
	name string
	// wallClock marks the sleep-bound workload: it runs on all cores and
	// its times are plain wall seconds. Every other workload runs under
	// GOMAXPROCS(1) and reports reference seconds.
	wallClock bool
	// warm is the number of warm-up chunks each set-up runs.
	warm    int
	prepare prepareFn
}

var workloads = []workload{
	{name: "sim-paper", warm: 4, prepare: prepareSimPaper},
	{name: "ashad-fleet", warm: 2, prepare: prepareFleet},
	{name: "resume-replay", warm: 1, prepare: prepareReplay},
	{name: "tune-paced", wallClock: true, warm: 1, prepare: preparePaced},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timed runs fn and fills in the chunk's wall time and allocation
// counts. ReadMemStats stops the world, so it stays outside the timed
// interval.
func (c *chunkResult) timed(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := processCPU()
	start := time.Now()
	fn()
	c.wall = time.Since(start)
	c.cpu = processCPU() - cpu
	runtime.ReadMemStats(&after)
	c.mallocs = after.Mallocs - before.Mallocs
	c.bytes = after.TotalAlloc - before.TotalAlloc
}

// check records a failed self-check: it counts as a failed operation and
// makes the command exit non-zero.
func (c *chunkResult) check(ok bool, format string, args ...interface{}) {
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
	}
}

// fleetSpace is the two-parameter space of the zero-cost objective.
func fleetSpace() *asha.Space {
	return asha.NewSpace(asha.LogUniform("lr", 1e-4, 1), asha.Uniform("momentum", 0, 1))
}

var fleetASHA = asha.ASHA{Eta: 4, MinResource: 1, MaxResource: 256}

// ashad-fleet's lease-server settings: deep batches, deep prefetch, a
// short flush, and a worker budget that keeps the prefetch full.
const (
	fleetBatch    = 256
	fleetPrefetch = 512
	fleetFlush    = 2 * time.Millisecond
	fleetBudget   = 1024
)

// zeroCost is a training step that costs nothing but keeps a checkpoint,
// so every job carries state through whatever executes it.
func zeroCost(_ context.Context, cfg asha.Config, _, _ float64, st interface{}) (float64, interface{}, error) {
	loss := 3.0
	if s, ok := st.(float64); ok {
		loss = s
	}
	floor := 0.1 + 0.2*cfg["momentum"]
	loss = floor + (loss-floor)*0.8
	return loss, loss, nil
}

// --- sim-paper ---

// ptbLossLo and ptbLossHi bound every loss the ptb-lstm surrogate can
// report for a configuration that does not diverge: its best asymptote
// less idiosyncrasy and noise, and the loss of an untrained model.
const ptbLossLo, ptbLossHi = 70.0, 1000.0

// simSize is the paper's largest regime: 500 workers on ptb-lstm.
func simSize(smoke bool) (workers int, simTime float64) {
	if smoke {
		return 50, 1
	}
	return 500, 6
}

func prepareSimPaper(_ uint64, _ string, smoke bool) (chunkFn, error) {
	bench, err := asha.NamedBenchmark("ptb-lstm")
	if err != nil {
		return nil, err
	}
	workers, simTime := simSize(smoke)
	algo := asha.ASHA{Eta: 4, MinResource: 1, MaxResource: bench.MaxResource()}
	return func(seed uint64) chunkResult {
		var c chunkResult
		c.timed(func() {
			for k := uint64(0); k < 2; k++ {
				s := 2*seed + k
				res, err := asha.New(bench.Space(), nil, algo,
					asha.WithBackend(asha.Simulation{Benchmark: bench.WithNoiseSeed(s), MaxSimTime: simTime}),
					asha.WithWorkers(workers), asha.WithSeed(s+1),
				).Run(context.Background())
				if err != nil {
					c.check(false, "sim-paper run: %v", err)
					continue
				}
				c.jobs += res.CompletedJobs
				c.check(res.CompletedJobs > 0, "sim-paper completed no jobs")
				c.check(res.BestLoss >= ptbLossLo && res.BestLoss <= ptbLossHi,
					"sim-paper best loss %v outside [%v, %v]", res.BestLoss, ptbLossLo, ptbLossHi)
			}
		})
		c.attempted = c.jobs
		return c
	}, nil
}

// --- ashad-fleet ---

// fleetSize is the number of experiments and the job budget of each.
func fleetSize(smoke bool) (exps, jobsPer int) {
	if smoke {
		return 8, 100
	}
	return 64, 1000
}

func prepareFleet(_ uint64, dir string, smoke bool) (chunkFn, error) {
	exps, jobsPer := fleetSize(smoke)
	return func(seed uint64) chunkResult {
		var c chunkResult
		stateDir, err := os.MkdirTemp(dir, "fleet-")
		if err != nil {
			c.check(false, "ashad-fleet state dir: %v", err)
			return c
		}
		defer os.RemoveAll(stateDir)
		c.attempted = exps * jobsPer
		c.timed(func() { c.jobs = runFleet(&c, seed, stateDir, exps, jobsPer, zeroCost, nil) })
		// Recovering a journal costs about as much as writing it, so a
		// chunk verifies every fourth one; which fourth moves with the seed.
		for i := int(seed % 4); i < exps; i += 4 {
			checkFinalJournal(&c, filepath.Join(stateDir, fleetJournal(i)), jobsPer)
		}
		return c
	}, nil
}

func fleetExperiment(i int) string {
	if i%2 == 0 {
		return fmt.Sprintf("a/exp%03d", i)
	}
	return fmt.Sprintf("b/exp%03d", i)
}

// fleetJournal is the file asha.Manager journals fleetExperiment(i) to.
func fleetJournal(i int) string {
	name := []byte(fleetExperiment(i))
	name[1] = '_'
	return string(name) + ".journal"
}

// runFleet is one asha.Manager run over a loopback fleet of one worker
// process-equivalent with two slots, saturated: deep batches, deep
// prefetch, a zero-cost objective. progress may be nil.
func runFleet(c *chunkResult, seed uint64, stateDir string, exps, jobsPer int,
	objective asha.Objective, progress func(asha.ExperimentProgress)) int {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var workers sync.WaitGroup
	opts := []asha.ManagerOption{
		asha.WithManagerWorkers(fleetBudget),
		asha.WithManagerStateDir(stateDir),
		asha.WithManagerTenantQuotas(map[string]int{"a": 3, "b": 1}),
		asha.WithManagerRemote(asha.Remote{
			BatchSize: fleetBatch, Prefetch: fleetPrefetch, FlushInterval: fleetFlush,
			OnListen: func(url string) {
				workers.Add(1)
				go func() {
					defer workers.Done()
					// The worker ends when ctx does; the run's checks
					// catch anything it failed to do.
					_ = asha.ServeRemoteWorker(ctx, asha.RemoteWorker{
						Server: url, Slots: 2, Objective: objective,
					})
				}()
			},
		}),
	}
	if progress != nil {
		opts = append(opts, asha.WithManagerProgress(progress))
	}
	m := asha.NewManager(opts...)
	for i := 0; i < exps; i++ {
		if err := m.Add(asha.Experiment{
			Name: fleetExperiment(i), Space: fleetSpace(), Algorithm: fleetASHA,
			Seed: seed*uint64(exps) + uint64(i) + 1, MaxJobs: jobsPer,
		}); err != nil {
			c.check(false, "ashad-fleet add: %v", err)
			return 0
		}
	}
	results, err := m.Run(context.Background())
	cancel()
	workers.Wait()
	c.check(err == nil, "ashad-fleet run: %v", err)
	jobs := 0
	for i := 0; i < exps; i++ {
		res := results[fleetExperiment(i)]
		if res == nil {
			c.check(false, "ashad-fleet: no result for %s", fleetExperiment(i))
			continue
		}
		jobs += res.CompletedJobs
		// A job lost to an expired lease is issued again and uses up
		// budget, so exactly MaxJobs completions also means no lease expired.
		c.check(res.CompletedJobs == jobsPer, "ashad-fleet: %s completed %d jobs, want %d",
			fleetExperiment(i), res.CompletedJobs, jobsPer)
	}
	return jobs
}

// checkFinalJournal verifies that a journal recovers without a torn
// tail and ends in a final snapshot of the expected completion count.
func checkFinalJournal(c *chunkResult, path string, completed int) {
	data, err := os.ReadFile(path)
	if err != nil {
		c.check(false, "journal: %v", err)
		return
	}
	rec, err := state.Recover(data)
	if err != nil {
		c.check(false, "journal %s: %v", path, err)
		return
	}
	ok := !rec.Truncated && len(rec.Records) > 0
	if ok {
		snap := rec.Records[len(rec.Records)-1].Snap
		ok = snap != nil && snap.Final && snap.Completed == completed
	}
	c.check(ok, "journal %s does not end in a final snapshot of %d completions", path, completed)
}

// --- resume-replay ---

// journaled is one journaled run for resume-replay to recover.
type journaled struct {
	seed     uint64
	jobs     int
	journal  []byte       // the tuner.journal the run left behind
	want     *asha.Result // what the run returned
	launched atomic.Int64 // objective calls, to show that Resume launches none
}

// replayJournals is how many journaled runs one chunk resumes. How fast
// a journal replays depends on the run it records by a few percent;
// several smaller journals from different seeds even that out, and keep
// the heap of one recovery small.
const replayJournals = 4

// tuner is the asha.Tuner that journaled the run, and resumes it.
func (in *journaled) tuner(stateDir string) *asha.Tuner {
	objective := func(ctx context.Context, cfg asha.Config, from, to float64, st interface{}) (float64, interface{}, error) {
		in.launched.Add(1)
		return zeroCost(ctx, cfg, from, to, st)
	}
	return asha.New(fleetSpace(), objective, fleetASHA,
		asha.WithWorkers(2), asha.WithStateDir(stateDir), asha.WithMaxJobs(in.jobs), asha.WithSeed(in.seed))
}

// journalRuns journals replayJournals ASHA runs on the default goroutine
// pool. Their seeds follow from the base seed: every chunk of a run
// replays the same journals, as a restarted tuner would.
func journalRuns(seed uint64, dir string, smoke bool) ([]*journaled, error) {
	jobs := 15_000
	if smoke {
		jobs = 500
	}
	ins := make([]*journaled, replayJournals)
	for k := range ins {
		in := &journaled{seed: replayJournals*seed + uint64(k) + 1, jobs: jobs}
		src, err := os.MkdirTemp(dir, "journaled-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(src)
		if in.want, err = in.tuner(src).Run(context.Background()); err != nil {
			return nil, fmt.Errorf("journaling run: %w", err)
		}
		if in.journal, err = os.ReadFile(filepath.Join(src, "tuner.journal")); err != nil {
			return nil, err
		}
		ins[k] = in
	}
	return ins, nil
}

func prepareReplay(seed uint64, dir string, smoke bool) (chunkFn, error) {
	ins, err := journalRuns(seed, dir, smoke)
	if err != nil {
		return nil, err
	}
	return replayChunk(ins, dir), nil
}

// copyJournal puts a copy of the journal into a new state directory
// under dir: Resume appends to the journal it recovers, so each chunk
// needs its own. The copy is synced here, untimed; otherwise the sync
// that closes the resumed journal would write all of it to disk inside
// the timed part.
func (in *journaled) copyJournal(dir string) (stateDir string, err error) {
	if stateDir, err = os.MkdirTemp(dir, "resume-"); err != nil {
		return "", err
	}
	f, err := os.Create(filepath.Join(stateDir, "tuner.journal"))
	if err != nil {
		return "", err
	}
	if _, err = f.Write(in.journal); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return stateDir, err
}

// copyJournals is copyJournal for every run; cleanup removes the copies.
func copyJournals(ins []*journaled, dir string) (stateDirs []string, cleanup func(), err error) {
	cleanup = func() {
		for _, d := range stateDirs {
			os.RemoveAll(d)
		}
	}
	for _, in := range ins {
		d, err := in.copyJournal(dir)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		stateDirs = append(stateDirs, d)
	}
	return stateDirs, cleanup, nil
}

// replayChunk resumes every journaled run with its budget already
// spent: recover and replay every record, launch nothing.
func replayChunk(ins []*journaled, dir string) chunkFn {
	return func(uint64) chunkResult {
		var c chunkResult
		stateDirs, cleanup, err := copyJournals(ins, dir)
		if err != nil {
			c.check(false, "resume-replay state dir: %v", err)
			return c
		}
		defer cleanup()
		got := make([]*asha.Result, len(ins))
		errs := make([]error, len(ins))
		launched := make([]int64, len(ins))
		c.timed(func() {
			for k, in := range ins {
				launched[k] = in.launched.Load()
				got[k], errs[k] = in.tuner(stateDirs[k]).Resume(context.Background())
			}
		})
		for k, in := range ins {
			c.attempted += in.want.CompletedJobs
			if errs[k] != nil {
				c.check(false, "resume: %v", errs[k])
				continue
			}
			c.jobs += got[k].CompletedJobs
			c.check(got[k].CompletedJobs == in.want.CompletedJobs, "resumed %d completed jobs, journaled %d", got[k].CompletedJobs, in.want.CompletedJobs)
			c.check(math.Float64bits(got[k].BestLoss) == math.Float64bits(in.want.BestLoss), "resumed best loss %v, journaled %v", got[k].BestLoss, in.want.BestLoss)
			c.check(in.launched.Load() == launched[k], "resume launched %d new jobs", in.launched.Load()-launched[k])
		}
		return c
	}
}

// --- tune-paced ---

const (
	pacedWorkers = 4
	pacedSlots   = 4
	pacedSleep   = 2 * time.Millisecond
)

func pacedJobs(smoke bool) int {
	if smoke {
		return 800
	}
	return 12_000
}

func pacedObjective(ctx context.Context, cfg asha.Config, from, to float64, st interface{}) (float64, interface{}, error) {
	time.Sleep(pacedSleep)
	return zeroCost(ctx, cfg, from, to, st)
}

func preparePaced(_ uint64, dir string, smoke bool) (chunkFn, error) {
	jobs := pacedJobs(smoke)
	return func(seed uint64) chunkResult {
		return runPaced(seed, dir, jobs, pacedObjective, nil)
	}, nil
}

// runPaced is one journaled asha.Tuner run on the Remote backend at its
// shipped defaults (no batching, no prefetch), closed loop: 16 leases
// over 4 loopback workers of 4 slots each.
func runPaced(seed uint64, dir string, jobs int, objective asha.Objective, progress func(asha.Progress)) chunkResult {
	var c chunkResult
	stateDir, err := os.MkdirTemp(dir, "paced-")
	if err != nil {
		c.check(false, "tune-paced state dir: %v", err)
		return c
	}
	defer os.RemoveAll(stateDir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var workers sync.WaitGroup
	opts := []asha.Option{
		asha.WithWorkers(pacedWorkers * pacedSlots), asha.WithStateDir(stateDir),
		asha.WithMaxJobs(jobs), asha.WithSeed(seed + 1),
		asha.WithBackend(asha.Remote{OnListen: func(url string) {
			for i := 0; i < pacedWorkers; i++ {
				workers.Add(1)
				go func() {
					defer workers.Done()
					_ = asha.ServeRemoteWorker(ctx, asha.RemoteWorker{
						Server: url, Slots: pacedSlots, Objective: objective,
					})
				}()
			}
		}}),
	}
	if progress != nil {
		opts = append(opts, asha.WithProgress(progress))
	}
	c.attempted = jobs
	var res *asha.Result
	c.timed(func() {
		res, err = asha.New(fleetSpace(), nil, fleetASHA, opts...).Run(context.Background())
		cancel()
		workers.Wait()
	})
	if err != nil {
		c.check(false, "tune-paced run: %v", err)
		return c
	}
	c.jobs = res.CompletedJobs
	// Failed completions are retried against the same budget, so a full
	// count of completions means none failed.
	c.check(res.CompletedJobs == jobs, "tune-paced completed %d jobs, want %d", res.CompletedJobs, jobs)
	return c
}
