package core

// Cross-scheduler invariant suite: every scheduler, whatever its
// promotion scheme, is driven through randomized job streams — random
// completion order, random losses, injected failures with retries — and
// checked against the contract the execution engine relies on:
//
//  1. Exactly-once issue: a (trial, rung, target) attempt is issued at
//     most once, plus once per reported failure of that attempt. Jobs
//     that inherit another trial's state (PBT's exploit) start a new
//     lineage for their trial — exploit may legitimately roll a member
//     back to its donor's training position — and the invariant holds
//     within each lineage.
//  2. Monotone resources: a trial's issued target resources never
//     decrease within a lineage.
//  3. Promotion caps. Synchronous successive halving promotes at rung
//     barriers, so the distinct trials issued at rung k never exceed
//     ⌈n/eta⌉ where n is the number of distinct trials that
//     successfully completed rung k-1 (summed across brackets;
//     per-bracket floors only tighten this). Asynchronous variants
//     deliberately over-promote relative to that aggregate — a trial
//     promoted while it was in the top 1/eta stays promoted as the
//     rung grows under it (Algorithm 2's trade) — so for them the
//     check moves to decision time: every promotion to rung k must
//     rank within the top ⌊n/eta⌋ of rung k-1's successful entries
//     (ties by trial ID) at the moment it is issued.
//  4. Termination: once Done reports true, Next must decline work; and
//     a scheduler that declines work while nothing is in flight must
//     be Done — anything else deadlocks its executor.
//
//  5. Reproducibility: the same seed and the same completion stream give
//     the same decisions, bit for bit — what journal replay and every
//     fixed-seed figure rest on.
//
//  6. Issued configurations are never written: the values a Job carries
//     when Next returns it are its values at the end of the stream. The
//     simulator's trials, the lease payload and the journal's
//     checkpoints hold an issued configuration without a copy.
//
// The suite is table-driven: a new scheduler inherits every check by
// adding one constructor entry.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/searchspace"
	"repro/internal/xrand"
)

func invariantSpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "lr", Type: searchspace.LogUniform, Lo: 1e-4, Hi: 1},
		searchspace.Param{Name: "momentum", Type: searchspace.Uniform, Lo: 0, Hi: 1},
	)
}

// invariantCase is one scheduler under test.
type invariantCase struct {
	name string
	make func(space *searchspace.Space, rng *xrand.RNG) Scheduler
	// maxJobs bounds the randomized stream (model-based schedulers pay
	// a per-decision fit cost, so they get shorter streams).
	maxJobs int
	// eta > 0 enables a promotion check: the scheduler is a
	// successive-halving family member whose Job.Rung is a promotion
	// rung. Schedulers using Rung as a step index (PBT) or always 0
	// (random, GP comparators) skip both checks.
	eta int
	// asyncRank selects the decision-time rank check (asynchronous
	// promotion) instead of the aggregate ⌈n/eta⌉ cap (synchronous
	// rung barriers).
	asyncRank bool
}

func invariantCases() []invariantCase {
	return []invariantCase{
		{
			name: "asha",
			make: func(space *searchspace.Space, rng *xrand.RNG) Scheduler {
				return NewASHA(ASHAConfig{Space: space, RNG: rng, Eta: 3, MinResource: 1, MaxResource: 81})
			},
			maxJobs: 400, eta: 3, asyncRank: true,
		},
		{
			name: "asha-infinite",
			make: func(space *searchspace.Space, rng *xrand.RNG) Scheduler {
				return NewASHA(ASHAConfig{Space: space, RNG: rng, Eta: 4, MinResource: 1,
					MaxResource: 256, InfiniteHorizon: true})
			},
			maxJobs: 400, eta: 4, asyncRank: true,
		},
		{
			name: "sha",
			make: func(space *searchspace.Space, rng *xrand.RNG) Scheduler {
				return NewSHA(SHAConfig{Space: space, RNG: rng, N: 27, Eta: 3, MinResource: 1,
					MaxResource: 27, AllowNewBrackets: true})
			},
			maxJobs: 400, eta: 3,
		},
		{
			name: "hyperband",
			make: func(space *searchspace.Space, rng *xrand.RNG) Scheduler {
				return NewHyperband(HyperbandConfig{Space: space, RNG: rng, Eta: 3,
					MinResource: 1, MaxResource: 27, MaxBracket: -1})
			},
			maxJobs: 400, eta: 3,
		},
		{
			name: "async-hyperband",
			make: func(space *searchspace.Space, rng *xrand.RNG) Scheduler {
				return NewAsyncHyperband(AsyncHyperbandConfig{Space: space, RNG: rng, Eta: 3,
					MinResource: 1, MaxResource: 27, MaxBracket: -1})
			},
			maxJobs: 400, eta: 3, asyncRank: true,
		},
		{
			name: "model-asha",
			make: func(space *searchspace.Space, rng *xrand.RNG) Scheduler {
				return NewModelASHA(ModelASHAConfig{Space: space, RNG: rng, Eta: 3,
					MinResource: 1, MaxResource: 27})
			},
			maxJobs: 200, eta: 3, asyncRank: true,
		},
		{
			name: "bohb",
			make: func(space *searchspace.Space, rng *xrand.RNG) Scheduler {
				return NewBOHB(BOHBConfig{Space: space, RNG: rng, N: 27, Eta: 3, MinResource: 1,
					MaxResource: 27, AllowNewBrackets: true})
			},
			maxJobs: 200, eta: 3,
		},
		{
			name: "random",
			make: func(space *searchspace.Space, rng *xrand.RNG) Scheduler {
				return NewRandomSearch(RandomSearchConfig{Space: space, RNG: rng, MaxResource: 16})
			},
			maxJobs: 300,
		},
		{
			name: "pbt",
			make: func(space *searchspace.Space, rng *xrand.RNG) Scheduler {
				return NewPBT(PBTConfig{Space: space, RNG: rng, Population: 8, Step: 1,
					MaxResource: 8, TruncationFrac: 0.25, MaxLag: 2, SpawnPopulations: true})
			},
			maxJobs: 400,
		},
		{
			name: "vizier",
			make: func(space *searchspace.Space, rng *xrand.RNG) Scheduler {
				return NewVizier(VizierConfig{Space: space, RNG: rng, MaxResource: 16})
			},
			maxJobs: 80,
		},
		{
			name: "fabolas",
			make: func(space *searchspace.Space, rng *xrand.RNG) Scheduler {
				return NewFabolas(FabolasConfig{Space: space, RNG: rng, MaxResource: 16})
			},
			maxJobs: 80,
		},
	}
}

// issueKey identifies one training attempt: trial, lineage generation
// (bumped when the trial inherits another's state), promotion rung and
// target resource.
type issueKey struct {
	trial, gen, rung int
	target           float64
}

// rungLevel identifies one promotion rung across brackets: brackets
// with different early-stopping rates share rung indexes but never the
// (index, resource) pair, so the successful entries recorded at a
// rungLevel are exactly one bracket's rung contents.
type rungLevel struct {
	rung     int
	resource float64
}

// driveInvariants runs one randomized stream against sched, asserting
// the issue-time invariants inline and returning the rung tallies for
// the end-of-run promotion check.
func driveInvariants(t *testing.T, sched Scheduler, c invariantCase, seed uint64, failProb float64) (issuedRung, completedRung map[int]map[int]bool) {
	t.Helper()
	const capacity = 8
	rng := xrand.New(seed)
	issues := make(map[issueKey]int)
	failures := make(map[issueKey]int)
	gen := make(map[int]int)
	lastTarget := make(map[int]float64)
	issuedRung = make(map[int]map[int]bool)
	completedRung = make(map[int]map[int]bool)
	// successes records every successful observation per rung level;
	// lastSuccess is each trial's most recent one — the observation an
	// asynchronous promotion decision is made on.
	successes := make(map[rungLevel]map[int]float64)
	lastSuccess := make(map[int]lastObs)
	key := func(job Job) issueKey {
		return issueKey{trial: job.TrialID, gen: gen[job.TrialID], rung: job.Rung, target: job.TargetResource}
	}

	var inflight []Job
	// issuedConfigs pairs every issued Job with a copy of its values.
	var issuedConfigs []issuedConfig
	issued := 0
	clock := 0.0
	for {
		if sched.Done() {
			if job, ok := sched.Next(); ok {
				t.Fatalf("scheduler issued a job after Done: %+v", job)
			}
			break
		}
		for len(inflight) < capacity && issued < maxJobsOf(c) && !sched.Done() {
			job, ok := sched.Next()
			if !ok {
				break
			}
			if job.TargetResource <= 0 {
				t.Fatalf("issued job with non-positive target: %+v", job)
			}
			if job.InheritFrom >= 0 {
				// A new lineage: the trial adopts its donor's training
				// position, so its resource clock legitimately restarts.
				gen[job.TrialID]++
				delete(lastTarget, job.TrialID)
			}
			if last, seen := lastTarget[job.TrialID]; seen && job.TargetResource < last-1e-9 {
				t.Fatalf("trial %d target resource decreased %v -> %v without an inherit",
					job.TrialID, last, job.TargetResource)
			}
			lastTarget[job.TrialID] = job.TargetResource
			k := key(job)
			issues[k]++
			if issues[k] > 1+failures[k] {
				t.Fatalf("attempt %+v issued %d times with only %d failures — not exactly-once",
					k, issues[k], failures[k])
			}
			if c.asyncRank && job.Rung > 0 && !issuedRung[job.Rung][job.TrialID] {
				assertPromotionRank(t, successes, lastSuccess[job.TrialID], job, c.eta)
			}
			if issuedRung[job.Rung] == nil {
				issuedRung[job.Rung] = make(map[int]bool)
			}
			issuedRung[job.Rung][job.TrialID] = true
			inflight = append(inflight, job)
			issuedConfigs = append(issuedConfigs, issuedConfig{job, slices.Clone(job.Config.Values())})
			issued++
		}
		if len(inflight) == 0 {
			if issued >= maxJobsOf(c) {
				break
			}
			if !sched.Done() {
				t.Fatalf("scheduler declined work with nothing in flight and Done()==false after %d jobs — its executor would deadlock", issued)
			}
			continue
		}
		// Settle one random in-flight job: the completion order a real
		// cluster produces is arbitrary, so the invariants must hold for
		// any of them.
		i := rng.IntN(len(inflight))
		job := inflight[i]
		inflight[i] = inflight[len(inflight)-1]
		inflight = inflight[:len(inflight)-1]
		clock++
		if rng.Float64() < failProb {
			failures[key(job)]++
			sched.Report(Result{
				TrialID: job.TrialID, Rung: job.Rung, Config: job.Config,
				Loss: math.NaN(), TrueLoss: math.NaN(), Resource: 0, Failed: true, Time: clock,
			})
			continue
		}
		if completedRung[job.Rung] == nil {
			completedRung[job.Rung] = make(map[int]bool)
		}
		completedRung[job.Rung][job.TrialID] = true
		loss := rng.Float64()
		level := rungLevel{rung: job.Rung, resource: job.TargetResource}
		if successes[level] == nil {
			successes[level] = make(map[int]float64)
		}
		successes[level][job.TrialID] = loss
		lastSuccess[job.TrialID] = lastObs{level: level, loss: loss}
		sched.Report(Result{
			TrialID: job.TrialID, Rung: job.Rung, Config: job.Config,
			Loss: loss, TrueLoss: loss, Resource: job.TargetResource, Time: clock,
		})
	}
	if issued == 0 {
		t.Fatal("scheduler issued no jobs")
	}
	assertConfigsUnwritten(t, issuedConfigs)
	return issuedRung, completedRung
}

// issuedConfig is one issued Job and its configuration's values as Next
// returned them.
type issuedConfig struct {
	job  Job
	vals []float64
}

// assertConfigsUnwritten checks that no issued configuration changed
// after Next returned it.
func assertConfigsUnwritten(t *testing.T, issued []issuedConfig) {
	t.Helper()
	for i, ic := range issued {
		if now := ic.job.Config.Values(); !slices.Equal(now, ic.vals) {
			t.Fatalf("issued job %d (trial %d, rung %d) carried config %v, written to %v since it was issued",
				i, ic.job.TrialID, ic.job.Rung, ic.vals, now)
		}
	}
}

func maxJobsOf(c invariantCase) int { return c.maxJobs }

// lastObs is a trial's most recent successful observation.
type lastObs struct {
	level rungLevel
	loss  float64
}

// assertPromotionRank checks one asynchronous promotion at decision
// time: the promoted trial's latest success must sit at the rung below,
// and must rank within the top ⌊n/eta⌋ of that rung level's successful
// entries (ascending loss, ties by trial ID — the order the rung heaps
// use) at the moment the promotion is issued.
func assertPromotionRank(t *testing.T, successes map[rungLevel]map[int]float64, last lastObs, job Job, eta int) {
	t.Helper()
	if successes[last.level] == nil {
		t.Fatalf("trial %d promoted to rung %d without any recorded success", job.TrialID, job.Rung)
	}
	if last.level.rung != job.Rung-1 {
		t.Fatalf("trial %d promoted to rung %d from a rung-%d success", job.TrialID, job.Rung, last.level.rung)
	}
	peers := successes[last.level]
	rank := 1
	for id, loss := range peers {
		if id == job.TrialID {
			continue
		}
		if loss < last.loss || (loss == last.loss && id < job.TrialID) {
			rank++
		}
	}
	if limit := len(peers) / eta; rank > limit {
		t.Fatalf("trial %d promoted to rung %d at rank %d of %d entries (top ⌊n/eta⌋ = %d)",
			job.TrialID, job.Rung, rank, len(peers), limit)
	}
}

// assertPromotionCaps checks that rung k never holds more distinct
// trials than ⌈n_{k-1}/eta⌉ allows, where n_{k-1} counts distinct
// trials that successfully completed rung k-1.
func assertPromotionCaps(t *testing.T, issuedRung, completedRung map[int]map[int]bool, eta int) {
	t.Helper()
	for rung, trials := range issuedRung {
		if rung == 0 {
			continue
		}
		n := len(completedRung[rung-1])
		cap := int(math.Ceil(float64(n) / float64(eta)))
		if len(trials) > cap {
			t.Errorf("rung %d holds %d distinct trials; %d completions of rung %d cap it at %d",
				rung, len(trials), n, rung-1, cap)
		}
	}
}

func TestSchedulerInvariants(t *testing.T) {
	space := invariantSpace()
	for _, tc := range invariantCases() {
		for _, cfg := range []struct {
			seed     uint64
			failProb float64
		}{
			{seed: 1, failProb: 0},    // clean stream
			{seed: 2, failProb: 0.12}, // failures force the retry path
			{seed: 3, failProb: 0.3},  // heavy failure load
		} {
			name := fmt.Sprintf("%s/seed=%d,fail=%v", tc.name, cfg.seed, cfg.failProb)
			t.Run(name, func(t *testing.T) {
				sched := tc.make(space, xrand.New(cfg.seed))
				issuedRung, completedRung := driveInvariants(t, sched, tc, cfg.seed*101, cfg.failProb)
				if tc.eta > 0 && !tc.asyncRank {
					assertPromotionCaps(t, issuedRung, completedRung, tc.eta)
				}
			})
		}
	}
}

// TestSchedulerInvariantsLiveControl drives every scheduler config
// through a Gate with randomized pause/resume windows injected into the
// stream and a final abort — the live-operations contract the /v1/admin
// API relies on, checked for all schedulers at once:
//
//   - no Next grants while paused (even as in-flight results keep
//     arriving during the pause);
//   - monotone target resources are preserved across resume — a pause
//     never resets a trial's resource clock;
//   - no work after abort: Next declines, Done reports true, and late
//     results are swallowed without re-opening work.
func TestSchedulerInvariantsLiveControl(t *testing.T) {
	space := invariantSpace()
	for _, tc := range invariantCases() {
		for _, seed := range []uint64{11, 12} {
			name := fmt.Sprintf("%s/seed=%d", tc.name, seed)
			t.Run(name, func(t *testing.T) {
				driveLiveControl(t, tc, space, seed)
			})
		}
	}
}

func driveLiveControl(t *testing.T, tc invariantCase, space *searchspace.Space, seed uint64) {
	t.Helper()
	const capacity = 8
	rng := xrand.New(seed)
	gate := NewGate(tc.make(space, xrand.New(seed)))
	gen := make(map[int]int)
	lastTarget := make(map[int]float64)
	var inflight []Job
	issued := 0
	clock := 0.0

	// The budget stops the stream with work typically still in flight,
	// so the final abort exercises the swallow-late-results path.
	budget := tc.maxJobs / 2
	if budget > 120 {
		budget = 120
	}

	// settle reports one random in-flight job, failing it with
	// probability failProb — the same arbitrary completion order and
	// retry injection as the base suite.
	settle := func(failProb float64) {
		i := rng.IntN(len(inflight))
		job := inflight[i]
		inflight[i] = inflight[len(inflight)-1]
		inflight = inflight[:len(inflight)-1]
		clock++
		if rng.Float64() < failProb {
			gate.Report(Result{
				TrialID: job.TrialID, Rung: job.Rung, Config: job.Config,
				Loss: math.NaN(), TrueLoss: math.NaN(), Resource: 0, Failed: true, Time: clock,
			})
			return
		}
		loss := rng.Float64()
		gate.Report(Result{
			TrialID: job.TrialID, Rung: job.Rung, Config: job.Config,
			Loss: loss, TrueLoss: loss, Resource: job.TargetResource, Time: clock,
		})
	}

	for issued < budget && !gate.Done() {
		// Randomized pause window: results keep flowing while paused,
		// grants must not.
		if rng.Float64() < 0.15 {
			gate.Pause()
			if gate.State() != GatePaused {
				t.Fatalf("State() = %q after Pause", gate.State())
			}
			if job, ok := gate.Next(); ok {
				t.Fatalf("Next granted %+v while paused", job)
			}
			for len(inflight) > 0 && rng.Float64() < 0.7 {
				settle(0.15)
			}
			if job, ok := gate.Next(); ok {
				t.Fatalf("Next granted %+v while paused after deliveries", job)
			}
			gate.Resume()
			if gate.State() != GateRunning {
				t.Fatalf("State() = %q after Resume", gate.State())
			}
		}
		for len(inflight) < capacity && issued < budget && !gate.Done() {
			job, ok := gate.Next()
			if !ok {
				break
			}
			if job.TargetResource <= 0 {
				t.Fatalf("issued job with non-positive target: %+v", job)
			}
			if job.InheritFrom >= 0 {
				gen[job.TrialID]++
				delete(lastTarget, job.TrialID)
			}
			// The monotone check deliberately spans pause/resume cycles:
			// lastTarget is never reset, so a scheduler whose resume path
			// rewound a trial's resource clock would fail here.
			if last, seen := lastTarget[job.TrialID]; seen && job.TargetResource < last-1e-9 {
				t.Fatalf("trial %d target resource decreased %v -> %v across live control",
					job.TrialID, last, job.TargetResource)
			}
			lastTarget[job.TrialID] = job.TargetResource
			inflight = append(inflight, job)
			issued++
		}
		if len(inflight) == 0 {
			if gate.Done() {
				break
			}
			t.Fatalf("scheduler declined work with nothing in flight and Done()==false after %d jobs", issued)
		}
		settle(0.1)
	}
	if issued == 0 {
		t.Fatal("scheduler issued no jobs under live control")
	}

	gate.Abort()
	if !gate.Done() {
		t.Fatal("Done() == false after Abort")
	}
	if gate.State() != GateAborted {
		t.Fatalf("State() = %q after Abort", gate.State())
	}
	if job, ok := gate.Next(); ok {
		t.Fatalf("Next granted %+v after abort", job)
	}
	// Late results of jobs that were in flight at abort time are
	// swallowed; none may re-open work.
	for _, job := range inflight {
		clock++
		gate.Report(Result{
			TrialID: job.TrialID, Rung: job.Rung, Config: job.Config,
			Loss: rng.Float64(), TrueLoss: 0, Resource: job.TargetResource, Time: clock,
		})
		if late, ok := gate.Next(); ok {
			t.Fatalf("a late result re-opened work after abort: %+v", late)
		}
	}
	// Abort is terminal: pause/resume after it change nothing.
	gate.Pause()
	if gate.State() != GateAborted {
		t.Fatalf("Pause() moved an aborted gate to %q", gate.State())
	}
	gate.Resume()
	if !gate.Done() {
		t.Fatal("Resume() revived an aborted gate")
	}
}

// TestGateFlipsFromAnotherGoroutine: an operator's goroutine pauses,
// resumes and finally aborts while this one drives Next and Report as
// the engine does, reading the gate's state word without a lock. Under
// -race this is the evidence that the flips are synchronized; the drive
// ends only because Abort reaches Done.
func TestGateFlipsFromAnotherGoroutine(t *testing.T) {
	gate := NewGate(NewASHA(ASHAConfig{Space: invariantSpace(), RNG: xrand.New(3), Eta: 3, MinResource: 1, MaxResource: 81}))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			gate.Pause()
			runtime.Gosched()
			gate.Resume()
			runtime.Gosched()
		}
		gate.Abort()
	}()
	rng := xrand.New(4)
	var inflight []Job
	granted := 0
	for !gate.Done() {
		if job, ok := gate.Next(); ok {
			inflight = append(inflight, job)
			granted++
		}
		if len(inflight) > 0 {
			job := inflight[0]
			inflight = inflight[1:]
			gate.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: rng.Float64(), Resource: job.TargetResource})
		}
	}
	wg.Wait()
	if gate.State() != GateAborted {
		t.Fatalf("State() = %q after Abort", gate.State())
	}
	if job, ok := gate.Next(); ok {
		t.Fatalf("Next granted %+v after abort (%d granted before)", job, granted)
	}
	gate.Resume()
	if gate.State() != GateAborted {
		t.Fatal("Resume() revived an aborted gate")
	}
}

// decisionStream drives sched through a seeded stream — up to inflight
// jobs outstanding, a random one settled at a time, some failing, losses
// coarse enough to tie — until it has issued jobs of them, and renders
// every decision it made, configuration included, to the bit.
func decisionStream(sched Scheduler, inflight, jobs int, seed uint64) []string {
	rng := xrand.New(seed)
	var stream []string
	var running []Job
	for clock := 0.0; ; clock++ {
		for len(running) < inflight && len(stream) < jobs {
			job, ok := sched.Next()
			if !ok {
				break
			}
			d := fmt.Sprintf("trial %d rung %d inherit %d target %x config", job.TrialID, job.Rung, job.InheritFrom, math.Float64bits(job.TargetResource))
			for _, v := range job.Config.Values() {
				d += fmt.Sprintf(" %x", math.Float64bits(v))
			}
			stream = append(stream, d)
			running = append(running, job)
		}
		if len(running) == 0 || len(stream) >= jobs {
			return stream
		}
		i := rng.IntN(len(running))
		job := running[i]
		running[i] = running[len(running)-1]
		running = running[:len(running)-1]
		res := Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Time: clock}
		if rng.Float64() < 0.1 {
			res.Loss, res.TrueLoss, res.Failed = math.NaN(), math.NaN(), true
		} else {
			res.Loss = float64(rng.IntN(32)) / 32
			res.TrueLoss, res.Resource = res.Loss, job.TargetResource
		}
		sched.Report(res)
	}
}

// TestSchedulerDecisionsRepeatAtOneSeed runs every scheduler twice at one
// seed over one completion stream. Nothing a decision reads may come out
// of a map in iteration order: each range draws a fresh order, so a
// scheduler that lets one through diverges here — at once with more jobs
// in flight than a model's cap on pending points (Vizier's 200), which
// then picks a different subset each run; within a few runs below it,
// where only the order of the model's rows varies (ci.yml runs this
// -count=5).
func TestSchedulerDecisionsRepeatAtOneSeed(t *testing.T) {
	space := invariantSpace()
	for _, tc := range invariantCases() {
		for _, row := range []struct{ inflight, jobs int }{
			{inflight: 260, jobs: 300},
			{inflight: 32, jobs: min(tc.maxJobs, 160)},
		} {
			t.Run(fmt.Sprintf("%s/inflight=%d", tc.name, row.inflight), func(t *testing.T) {
				first := decisionStream(tc.make(space, xrand.New(7)), row.inflight, row.jobs, 707)
				again := decisionStream(tc.make(space, xrand.New(7)), row.inflight, row.jobs, 707)
				if len(first) == 0 {
					t.Fatal("scheduler issued no jobs")
				}
				for i := range first {
					second := "(none)"
					if i < len(again) {
						second = again[i]
					}
					if first[i] != second {
						t.Fatalf("decision %d of %d differs between two runs at one seed:\n  %s\n  %s", i, len(first), first[i], second)
					}
				}
				if len(again) != len(first) {
					t.Fatalf("%d decisions, then %d, at one seed", len(first), len(again))
				}
			})
		}
	}
}
