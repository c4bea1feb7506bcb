package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	asha "repro"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/remote"
	"repro/internal/state"
	"repro/internal/xrand"
)

// perLayer lists every per-layer metric of BENCHMARK.json, in print
// order. A traced run prints all of them; a metric of a layer the
// workload bypasses reads 0. Times are reference microseconds per job
// unless the name says otherwise (wall on tune-paced).
var perLayer = []struct{ name, unit string }{
	{"core.next_us", "us"}, {"core.report_us", "us"}, {"core.next_calls", "count"}, {"core.next_hit_ratio", "ratio"},
	{"backend.drive_self_us", "us"}, {"backend.await_batches", "count"}, {"backend.await_batch_mean", "count"},
	{"backend.replay_us_per_record", "us"},
	{"cluster.launch_us", "us"}, {"cluster.await_us", "us"}, {"cluster.events", "count"},
	{"state.append_us_per_record", "us"}, {"state.write_us_per_record", "us"}, {"state.bytes_per_job", "B"},
	{"state.records", "count"}, {"state.snapshots", "count"}, {"state.recover_us_per_record", "us"},
	{"exec.pool_launch_us", "us"}, {"exec.pool_await_us", "us"}, {"exec.objective_us", "us"},
	{"exec.wire_encode_us", "us"}, {"exec.wire_decode_us", "us"},
	{"remote.launch_us", "us"}, {"remote.await_us", "us"}, {"remote.expired_leases", "count"}, {"remote.submit_rtt_us", "us"},
	{"remote.dispatch_p50_ms", "ms"}, {"remote.dispatch_p99_ms", "ms"},
	{"remote.report_lag_p50_ms", "ms"}, {"remote.report_lag_p99_ms", "ms"}, {"worker_util", "ratio"},
	{"manager.dispatch_us_1exp", "us"}, {"manager.dispatch_us_64exp", "us"}, {"manager.dispatch_us_1024exp", "us"},
	{"proc.raw_jobs_per_s", "1/s"}, {"proc.cpu_us_per_job", "us"}, {"proc.peak_rss_mb", "MB"}, {"proc.gc_pause_ms", "ms"},
	{"cal.pass_ms_median", "ms"}, {"cal.pass_ms_iqr", "ms"}, {"trace.overhead_frac", "ratio"}, {"budget.coverage", "ratio"},
}

// tracedChunk is what one traced chunk adds to the run's layer numbers.
type tracedChunk struct {
	plain    chunkResult          // the untraced public-API chunk run just before it
	layers   [spanNames]layerTime // the traced twin's spans, folded
	jobs     int                  // jobs the traced twin completed
	counters map[string]float64   // counts taken where the work happens
	// tune-paced's per-job latencies, in seconds.
	dispatch, reportLag []float64
}

// collector gathers the traced chunks of one run and the inputs of the
// isolated replays that follow it.
type collector struct {
	rec    *recorder
	chunks []tracedChunk
	spans  []span // the last traced chunk's spans, for the trace file
	stream []byte // the last traced chunk's journal stream
	// newSched builds the scheduler that wrote stream, for backend.Replay.
	newSched func() core.Scheduler
	// setup holds layer numbers measured while setting up (resume-replay
	// journals through exec.Pool there), already per job.
	setup map[string]float64
}

// fold empties the recorder into per-layer sums and keeps a copy of the
// spans for the trace file.
func (c *collector) fold() ([spanNames]layerTime, []span) {
	c.spans = append(c.spans[:0], c.rec.take()...)
	return foldSpans(c.spans), c.spans
}

// tracedObjective records one leaf span per objective call.
func (c *collector) tracedObjective(inner asha.Objective) asha.Objective {
	return func(ctx context.Context, cfg asha.Config, from, to float64, st interface{}) (float64, interface{}, error) {
		start := c.rec.now()
		loss, next, err := inner(ctx, cfg, from, to, st)
		end := c.rec.now()
		trial, _ := asha.TrialIDFromContext(ctx)
		c.rec.leaf(spanObjective, jobID(trial, fleetRung(to)), start, end)
		return loss, next, err
	}
}

// fleetRung recovers the rung from a fleetASHA job's target resource.
func fleetRung(to float64) int {
	return int(math.Round(math.Log(to/fleetASHA.MinResource) / math.Log(float64(fleetASHA.Eta))))
}

func fleetScheduler(seed uint64) *core.Gate {
	return core.NewGate(core.NewASHA(core.ASHAConfig{
		Space: fleetSpace(), RNG: xrand.New(seed), Eta: fleetASHA.Eta,
		MinResource: fleetASHA.MinResource, MaxResource: fleetASHA.MaxResource,
	}))
}

// twinFn runs the traced twin of one chunk: the same work rebuilt from
// internal packages with timing decorators. It reports the chunk and
// what it adds to the run's layer numbers.
type twinFn func(seed uint64) (chunkResult, tracedChunk)

// tracedPrepare returns the traced version of a workload's prepare. Each
// of its chunks runs the untraced public-API chunk and the traced twin
// on the same seed, reports the twin, and checks that both did the same
// number of jobs. Whichever runs second finds the heap's pages already
// faulted in, which is worth a few percent; the order alternates with
// the seed so that trace.overhead_frac does not inherit that.
func (c *collector) tracedPrepare(w workload) prepareFn {
	twins := map[string]func(uint64, string, bool) (twinFn, error){
		"sim-paper": c.twinSimPaper, "ashad-fleet": c.twinFleet, "resume-replay": c.twinReplay, "tune-paced": c.twinPaced,
	}
	return func(seed uint64, dir string, smoke bool) (chunkFn, error) {
		plain, err := w.prepare(seed, dir, smoke)
		if err != nil {
			return nil, err
		}
		twin, err := twins[w.name](seed, dir, smoke)
		if err != nil {
			return nil, err
		}
		return func(seed uint64) chunkResult {
			var p, t chunkResult
			var tc tracedChunk
			if seed%2 == 0 {
				p = plain(seed)
				runtime.GC()
				t, tc = twin(seed)
			} else {
				t, tc = twin(seed)
				runtime.GC()
				p = plain(seed)
			}
			t.failed += p.failed
			t.check(tc.jobs == p.jobs, "%s: the traced twin completed %d jobs, the public API %d", w.name, tc.jobs, p.jobs)
			tc.plain = p
			c.chunks = append(c.chunks, tc)
			return t
		}, nil
	}
}

// --- sim-paper, rebuilt as asha.Tuner.run assembles it ---

func (c *collector) twinSimPaper(_ uint64, _ string, smoke bool) (twinFn, error) {
	bench, err := asha.NamedBenchmark("ptb-lstm")
	if err != nil {
		return nil, err
	}
	workers, simTime := simSize(smoke)
	return func(seed uint64) (chunkResult, tracedChunk) {
		var t chunkResult
		t.timed(func() {
			for k := uint64(0); k < 2; k++ {
				s := 2*seed + k
				gate := core.NewGate(core.NewASHA(core.ASHAConfig{
					Space: bench.Space(), RNG: xrand.New(s + 1), Eta: 4, MinResource: 1, MaxResource: bench.MaxResource(),
				}))
				sched := tracedSched{gate, c.rec}
				sim := cluster.New(sched, bench.WithNoiseSeed(s), cluster.Options{Workers: workers, MaxTime: simTime, Seed: s + 1})
				c.rec.begin(spanDrive, -1)
				run, err := backend.Drive(context.Background(), sched, &tracedBackend{Backend: sim, rec: c.rec},
					backend.Options{MaxTime: simTime, MaxResource: bench.MaxResource(), Gate: gate})
				c.rec.end()
				t.check(err == nil, "sim-paper traced run: %v", err)
				t.jobs += run.CompletedJobs
			}
		})
		t.attempted = t.jobs
		layers, _ := c.fold()
		return t, tracedChunk{layers: layers, jobs: t.jobs}
	}, nil
}

// --- ashad-fleet ---

// twinFleet times asha.Manager's nearest twin that has interfaces to
// time: backend.Drive over the same lease server, wire, agent and
// journal, one experiment holding the whole job budget. The twin
// supplies the layer numbers. It then runs the Manager itself with the
// objective and the progress callback timed, which is all its public API
// exposes, and reports that run: the cost of tracing.
func (c *collector) twinFleet(_ uint64, dir string, smoke bool) (twinFn, error) {
	exps, jobsPer := fleetSize(smoke)
	return func(seed uint64) (chunkResult, tracedChunk) {
		var t chunkResult
		tc := tracedChunk{}
		tc.counters, tc.jobs = c.fleetTwin(&t, seed, dir, exps*jobsPer)
		tc.layers, _ = c.fold()
		runtime.GC()

		stateDir, err := os.MkdirTemp(dir, "fleet-traced-")
		if err != nil {
			t.check(false, "ashad-fleet state dir: %v", err)
			return t, tc
		}
		defer os.RemoveAll(stateDir)
		t.attempted = exps * jobsPer
		t.timed(func() {
			t.jobs = runFleet(&t, seed, stateDir, exps, jobsPer, c.tracedObjective(zeroCost),
				func(asha.ExperimentProgress) { c.rec.begin(spanProgress, -1); c.rec.end() })
		})
		c.rec.take()
		return t, tc
	}, nil
}

// fleetTwin is one backend.Drive run shaped like an ashad-fleet chunk.
func (c *collector) fleetTwin(t *chunkResult, seed uint64, dir string, jobs int) (map[string]float64, int) {
	srv, err := remote.NewServer(remote.Options{
		BatchSize: fleetBatch, Prefetch: fleetPrefetch, FlushInterval: fleetFlush, MaxLeases: fleetBudget,
	})
	if err != nil {
		t.check(false, "ashad-fleet twin: %v", err)
		return nil, 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var agent sync.WaitGroup
	agent.Add(1)
	go func() {
		defer agent.Done()
		objective := exec.Objective(c.tracedObjective(zeroCost))
		_ = remote.ServeAgent(ctx, remote.AgentOptions{
			Server: srv.URL(), Slots: 2,
			Resolve: func(string) (exec.Objective, error) { return objective, nil },
		})
	}()
	file, err := os.CreateTemp(dir, "twin-*.journal")
	if err != nil {
		t.check(false, "ashad-fleet twin journal: %v", err)
		return nil, 0
	}
	defer os.Remove(file.Name())
	defer file.Close()
	tw := &tracedWriter{w: file, rec: c.rec}
	journal, err := state.NewWriter(tw, state.Meta{Experiment: "twin", Seed: seed + 1, Params: []string{"lr", "momentum"}})
	if err != nil {
		t.check(false, "ashad-fleet twin journal: %v", err)
		return nil, 0
	}
	gate := fleetScheduler(seed + 1)
	sched := tracedSched{gate, c.rec}
	be := &tracedBackend{Backend: remote.NewBackend(srv, fleetBudget), rec: c.rec}
	c.rec.begin(spanDrive, -1)
	run, err := backend.Drive(ctx, sched, be, backend.Options{MaxJobs: jobs, Journal: journal, Gate: gate})
	c.rec.end()
	cancel()
	agent.Wait()
	t.check(err == nil && run.CompletedJobs == jobs, "ashad-fleet twin completed %d of %d jobs: %v", run.CompletedJobs, jobs, err)
	c.stream = tw.stream
	c.newSched = func() core.Scheduler { return fleetScheduler(seed + 1) }
	return map[string]float64{
		"remote.expired_leases": float64(srv.ExpiredLeases()),
		"state.bytes":           float64(len(tw.stream)),
		"state.records":         float64(journal.Records()),
	}, run.CompletedJobs
}

// --- resume-replay, rebuilt as asha.Tuner.Resume assembles it ---

func (c *collector) twinReplay(seed uint64, dir string, smoke bool) (twinFn, error) {
	ins, err := journalRuns(seed, dir, smoke)
	if err != nil {
		return nil, err
	}
	// The first journaling run again, through backend.Drive and exec.Pool
	// with timing decorators: the only place the default Tuner path is
	// timed.
	if err := c.tracedJournalRun(ins[0], dir); err != nil {
		return nil, err
	}
	return func(uint64) (chunkResult, tracedChunk) {
		var t chunkResult
		stateDirs, cleanup, err := copyJournals(ins, dir)
		if err != nil {
			t.check(false, "resume-replay state dir: %v", err)
			return t, tracedChunk{}
		}
		defer cleanup()
		records, bytes := 0, 0
		t.timed(func() {
			for k, in := range ins {
				n, jobs := c.tracedResume(&t, in, filepath.Join(stateDirs[k], "tuner.journal"))
				records += n
				t.jobs += jobs
			}
		})
		for _, in := range ins {
			t.attempted += in.want.CompletedJobs
			bytes += len(in.journal)
		}
		layers, _ := c.fold()
		return t, tracedChunk{layers: layers, jobs: t.jobs,
			counters: map[string]float64{"state.records": float64(records), "state.bytes": float64(bytes)}}
	}, nil
}

// tracedResume does what asha.Tuner.Resume does to the journal at path,
// and returns the number of records recovered and of jobs replayed.
func (c *collector) tracedResume(t *chunkResult, in *journaled, path string) (records, jobs int) {
	c.rec.begin(spanRecover, -1)
	rec, journal, err := state.RecoverFile(path)
	c.rec.end()
	if err != nil {
		t.check(false, "resume-replay traced recover: %v", err)
		return 0, 0
	}
	gate := fleetScheduler(in.seed)
	sched := tracedSched{gate, c.rec}
	opt := backend.Options{MaxJobs: in.jobs, Gate: gate}
	c.rec.begin(spanReplay, -1)
	rs, err := backend.Replay(rec, sched, opt)
	c.rec.end()
	if err != nil {
		t.check(false, "resume-replay traced replay: %v", err)
		_ = journal.Close() // the replay error is the one to report
		return 0, 0
	}
	opt.Journal, opt.Resume = journal, rs
	pool := exec.NewPool(context.Background(), exec.Objective(zeroCost), 2)
	c.rec.begin(spanDrive, -1)
	run, err := backend.Drive(context.Background(), sched, &tracedBackend{Backend: pool, rec: c.rec}, opt)
	c.rec.end()
	t.check(err == nil, "resume-replay traced drive: %v", err)
	t.check(journal.Close() == nil, "resume-replay traced journal close")
	return len(rec.Records), run.CompletedJobs
}

// tracedJournalRun journals in.jobs jobs through backend.Drive on
// exec.Pool and stores the per-job layer numbers in c.setup.
func (c *collector) tracedJournalRun(in *journaled, dir string) error {
	file, err := os.CreateTemp(dir, "pool-*.journal")
	if err != nil {
		return err
	}
	defer os.Remove(file.Name())
	defer file.Close()
	tw := &tracedWriter{w: file, rec: c.rec}
	journal, err := state.NewWriter(tw, state.Meta{Experiment: "tuner", Seed: in.seed, Params: []string{"lr", "momentum"}})
	if err != nil {
		return err
	}
	gate := fleetScheduler(in.seed)
	sched := tracedSched{gate, c.rec}
	pool := exec.NewPool(context.Background(), exec.Objective(c.tracedObjective(zeroCost)), 2)
	before := quietPass()
	c.rec.begin(spanDrive, -1)
	run, err := backend.Drive(context.Background(), sched, &tracedBackend{Backend: pool, rec: c.rec},
		backend.Options{MaxJobs: in.jobs, Journal: journal, Gate: gate})
	c.rec.end()
	after := quietPass()
	if err != nil {
		return fmt.Errorf("traced journaling run: %w", err)
	}
	layers := foldSpans(c.rec.take())
	perJob := func(d time.Duration) float64 {
		return 1e6 * refSeconds(d, before, after) / float64(run.CompletedJobs)
	}
	c.setup = map[string]float64{
		"exec.pool_launch_us":       perJob(layers[spanLaunch].self),
		"exec.pool_await_us":        perJob(layers[spanAwait].self),
		"exec.objective_us":         perJob(layers[spanObjective].self),
		"state.write_us_per_record": perJob(layers[spanWrite].self) * float64(run.CompletedJobs) / float64(journal.Records()),
	}
	return nil
}

// --- tune-paced: the public API only ---

func (c *collector) twinPaced(_ uint64, dir string, smoke bool) (twinFn, error) {
	jobs := pacedJobs(smoke)
	objective := c.tracedObjective(pacedObjective)
	return func(seed uint64) (chunkResult, tracedChunk) {
		t := runPaced(seed, dir, jobs, objective, func(pr asha.Progress) {
			c.rec.begin(spanProgress, jobID(pr.TrialID, pr.Rung))
			c.rec.end()
		})
		tc := tracedChunk{jobs: t.jobs}
		var spans []span
		tc.layers, spans = c.fold()
		tc.dispatch, tc.reportLag = pacedLags(spans)
		return t, tc
	}, nil
}

// pacedLags derives the two latencies around the objective that the
// public API lets a caller see. Report lag is the time from an
// objective's return to the progress callback for the same job. The
// engine launches a job right after it has ingested a completion, so
// dispatch latency is the time from the i-th progress callback to the
// start of the (slots+i)-th objective call: the first `slots` calls are
// the initial fill.
func pacedLags(spans []span) (dispatch, reportLag []float64) {
	ended := map[int64]int64{} // job → objective end
	var starts, callbacks []int64
	for _, s := range spans {
		if s.name == spanObjective {
			ended[s.job] = s.end
			starts = append(starts, s.start)
		}
	}
	for _, s := range spans {
		if s.name == spanProgress {
			callbacks = append(callbacks, s.start)
			if end, ok := ended[s.job]; ok {
				reportLag = append(reportLag, float64(s.start-end)/1e9)
			}
		}
	}
	sort.Slice(starts, func(i, k int) bool { return starts[i] < starts[k] })
	sort.Slice(callbacks, func(i, k int) bool { return callbacks[i] < callbacks[k] })
	slots := pacedWorkers * pacedSlots
	for i := 0; i+slots < len(starts) && i < len(callbacks); i++ {
		dispatch = append(dispatch, float64(starts[i+slots]-callbacks[i])/1e9)
	}
	return dispatch, reportLag
}

// --- isolated replays: the costs no interface exposes ---

// refTimed runs fn between two kernel passes and returns how long it
// took, in reference seconds.
func refTimed(fn func()) float64 {
	before := quietPass()
	start := time.Now()
	fn()
	wall := time.Since(start)
	return refSeconds(wall, before, quietPass())
}

// replayStream feeds a recorded journal stream to state.Recover,
// Journal.Append, backend.Replay and the binary wire codec, each alone,
// and returns their per-record (codec: per-job) costs in reference µs.
func replayStream(stream []byte, newSched func() core.Scheduler) (map[string]float64, error) {
	var rec *state.Recovered
	var err error
	recoverS := refTimed(func() { rec, err = state.Recover(stream) })
	if err != nil {
		return nil, err
	}
	n := float64(len(rec.Records))
	out := map[string]float64{"state.recover_us_per_record": 1e6 * recoverS / n}

	journal, err := state.NewWriter(io.Discard, rec.Meta)
	if err != nil {
		return nil, err
	}
	appendS := refTimed(func() {
		for _, r := range rec.Records {
			if err = journal.Append(r); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out["state.append_us_per_record"] = 1e6 * appendS / n

	replayS := refTimed(func() { _, err = backend.Replay(rec, newSched(), backend.Options{}) })
	if err != nil {
		return nil, err
	}
	out["backend.replay_us_per_record"] = 1e6 * replayS / n

	// The wire carries each job twice: a request out, a response back.
	var reqs []exec.BinRequest
	var resps []exec.BinResponse
	for i, r := range rec.Records {
		switch {
		case r.Issue != nil:
			reqs = append(reqs, exec.BinRequest{
				ID: uint64(i), Trial: r.Issue.Trial, To: r.Issue.Target,
				Vec: []float64{r.Issue.Config["lr"], r.Issue.Config["momentum"]}, State: []byte("0.7512345678"),
			})
		case r.Report != nil:
			resps = append(resps, exec.BinResponse{ID: uint64(i), Loss: r.Report.Loss, State: []byte("0.7512345678")})
		}
	}
	var buf []byte
	encodeS := refTimed(func() {
		buf = buf[:0]
		for _, q := range reqs {
			buf = exec.AppendBinRequest(buf, q)
		}
		for _, p := range resps {
			buf = exec.AppendBinResponse(buf, p)
		}
	})
	var decodeErr error
	decodeS := refTimed(func() {
		r := exec.NewWireReader(buf)
		for range reqs {
			exec.DecodeBinRequest(r)
		}
		for range resps {
			exec.DecodeBinResponse(r)
		}
		decodeErr = r.Err()
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	out["exec.wire_encode_us"] = 1e6 * encodeS / float64(len(resps))
	out["exec.wire_decode_us"] = 1e6 * decodeS / float64(len(resps))
	return out, nil
}

// submitRTT pushes jobs straight into a lease server with one agent
// attached and no scheduler, and returns reference µs per job from
// Submit to outcome: lease server, wire and agent without an engine.
func submitRTT(jobs int) (float64, error) {
	srv, err := remote.NewServer(remote.Options{BatchSize: fleetBatch, Prefetch: fleetPrefetch, FlushInterval: fleetFlush})
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var agent sync.WaitGroup
	agent.Add(1)
	go func() {
		defer agent.Done()
		_ = remote.ServeAgent(ctx, remote.AgentOptions{
			Server: srv.URL(), Slots: 2,
			Resolve: func(string) (exec.Objective, error) { return exec.Objective(zeroCost), nil },
		})
	}()
	names := []string{"lr", "momentum"}
	failed := 0
	var mu sync.Mutex
	s := refTimed(func() {
		var settled sync.WaitGroup
		settled.Add(jobs)
		for i := 0; i < jobs; i++ {
			srv.Submit(remote.JobPayload{Trial: i, Names: names, Vec: []float64{0.01, 0.9}, To: 1}, func(o remote.Outcome) {
				if o.Failed || o.Err != "" {
					mu.Lock()
					failed++
					mu.Unlock()
				}
				settled.Done()
			})
		}
		settled.Wait()
	})
	cancel()
	agent.Wait()
	if err := srv.Close(); err != nil {
		return 0, err
	}
	if failed > 0 {
		return 0, fmt.Errorf("submit round trip: %d of %d jobs failed", failed, jobs)
	}
	return 1e6 * s / float64(jobs), nil
}

// managerDispatch runs asha.Manager on its in-process pool with the
// zero-cost objective, totalJobs spread over exps experiments, and
// returns reference µs per job: the Manager's own engine with nothing
// under it.
func managerDispatch(exps, totalJobs int) (float64, error) {
	m := asha.NewManager(asha.WithManagerWorkers(2))
	jobsPer := totalJobs / exps
	if jobsPer < 1 {
		jobsPer = 1 // smoke sizes have fewer jobs than experiments
	}
	for i := 0; i < exps; i++ {
		if err := m.Add(asha.Experiment{
			Name: fmt.Sprintf("exp%04d", i), Space: fleetSpace(), Objective: zeroCost,
			Algorithm: fleetASHA, Seed: uint64(i) + 1, MaxJobs: jobsPer,
		}); err != nil {
			return 0, err
		}
	}
	var err error
	s := refTimed(func() { _, err = m.Run(context.Background()) })
	return 1e6 * s / float64(jobsPer*exps), err
}
