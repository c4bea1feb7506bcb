package core

// Checkpoint images (codec.go): a restored scheduler continues exactly
// as the one it was taken from, images are canonical, foreign and
// arbitrary bytes are refused without panicking, and the schedulers
// that cannot be checkpointed say so.

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// codecCases are the invariant suite's schedulers that have a codec.
func codecCases(t testing.TB) []invariantCase {
	var out []invariantCase
	for _, tc := range invariantCases() {
		if CodecOf(tc.make(invariantSpace(), xrand.New(1))) != nil {
			out = append(out, tc)
		}
	}
	if len(out) != 4 {
		t.Fatalf("%d schedulers have a codec, want asha, asha-infinite, async-hyperband and random", len(out))
	}
	return out
}

// codecStream is a randomized job stream whose every choice is a function
// of the step it is made at, so a restored scheduler can take the stream
// over at any step: up to 8 jobs in flight, a random one settled a step,
// some failing, losses coarse enough to tie and now and then ±Inf or NaN.
type codecStream struct {
	running []Job
	issued  int
	step    int
	jobs    int
	seed    uint64
}

// advance fills the free slots and settles one job, returning a digest
// of every decision made, or false once the stream has ended.
func (s *codecStream) advance(sched Scheduler) ([]uint64, bool) {
	var out []uint64
	for len(s.running) < 8 && s.issued < s.jobs {
		job, ok := sched.Next()
		if !ok {
			break
		}
		h := xrand.NewFNV64()
		for _, v := range []uint64{uint64(job.TrialID), uint64(job.Rung), uint64(job.InheritFrom), math.Float64bits(job.TargetResource)} {
			h.Uint64(v)
		}
		for _, v := range job.Config.Values() {
			h.Uint64(math.Float64bits(v))
		}
		out = append(out, h.Sum())
		s.running = append(s.running, job)
		s.issued++
	}
	if len(s.running) == 0 {
		return out, false
	}
	roll := xrand.New(s.seed).SplitIndex("step", s.step)
	s.step++
	i := roll.IntN(len(s.running))
	job := s.running[i]
	s.running = append(s.running[:i:i], s.running[i+1:]...)
	res := Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Time: float64(s.step)}
	switch p := roll.Float64(); {
	case p < 0.12:
		res.Loss, res.TrueLoss, res.Failed = math.NaN(), math.NaN(), true
	case p < 0.14:
		res.Loss, res.Resource = math.Inf(1), job.TargetResource
	case p < 0.15:
		res.Loss, res.Resource = math.NaN(), job.TargetResource
	default:
		res.Loss = float64(roll.IntN(16)) / 16
		res.TrueLoss, res.Resource = res.Loss, job.TargetResource
	}
	sched.Report(res)
	best, ok := sched.Best()
	return append(out, uint64(best.TrialID), math.Float64bits(best.Loss), uint64(bit(ok))), true
}

func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRestoreContinuesTheStream takes an image at every step of each
// codec scheduler's randomized stream, restores it into a scheduler
// built from the same configuration and seed, and requires the decisions
// from that step on — every job, configuration and incumbent — to be the
// original's, and the restored scheduler to append the image it was
// restored from.
func TestRestoreContinuesTheStream(t *testing.T) {
	space := invariantSpace()
	for _, tc := range codecCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 5
			sched := tc.make(space, xrand.New(seed))
			stream := &codecStream{jobs: tc.maxJobs, seed: seed}
			var decisions [][]uint64 // decisions[k]: those made at step k
			var images [][]byte      // images[k]: the state before step k
			var at []codecStream
			for {
				images = append(images, sched.(StateCodec).AppendState(nil))
				at = append(at, codecStream{running: append([]Job(nil), stream.running...), issued: stream.issued, step: stream.step, jobs: stream.jobs, seed: seed})
				d, more := stream.advance(sched)
				decisions = append(decisions, d)
				if !more {
					break
				}
			}
			for k, image := range images {
				restored := tc.make(space, xrand.New(seed))
				if err := restored.(StateCodec).RestoreState(image); err != nil {
					t.Fatalf("step %d: restore: %v", k, err)
				}
				if again := restored.(StateCodec).AppendState(nil); !bytes.Equal(again, image) {
					t.Fatalf("step %d: a restored scheduler appends a different image (%d bytes, was %d)", k, len(again), len(image))
				}
				s := at[k]
				for i := k; i < len(decisions); i++ {
					d, _ := s.advance(restored)
					if !equalU64(d, decisions[i]) {
						t.Fatalf("restored at step %d of %d: step %d decided %x, the original %x", k, len(images), i, d, decisions[i])
					}
				}
			}
		})
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// An image is refused by a scheduler of another kind or configuration,
// naming what differs, and leaves the scheduler as it was.
func TestRestoreRefusesAnotherConfiguration(t *testing.T) {
	space := invariantSpace()
	asha := func(eta int, infinite bool) *ASHA {
		return NewASHA(ASHAConfig{Space: space, RNG: xrand.New(3), Eta: eta, MinResource: 1, MaxResource: 81, InfiniteHorizon: infinite})
	}
	src := asha(3, false)
	stream := &codecStream{jobs: 60, seed: 3}
	for more := true; more; _, more = stream.advance(src) {
	}
	image := src.AppendState(nil)
	params := slices.Clone(space.Params()) // the same names, one bound moved
	params[0].Hi *= 2
	wider := searchspace.New(params...)
	for _, c := range []struct {
		dst  StateCodec
		want string
	}{
		{asha(4, false), "taken with eta 3, this asha scheduler has eta 4"},
		{asha(3, true), "infinite horizon 0"},
		{NewASHA(ASHAConfig{Space: wider, RNG: xrand.New(3), Eta: 3, MinResource: 1, MaxResource: 81}), "taken over another search space"},
		{NewRandomSearch(RandomSearchConfig{Space: space, RNG: xrand.New(3), MaxResource: 81}), `checkpoint is of a "asha" scheduler, this one is "random"`},
		{NewAsyncHyperband(AsyncHyperbandConfig{Space: space, RNG: xrand.New(3), Eta: 3, MinResource: 1, MaxResource: 81, MaxBracket: -1}), `this one is "async-hyperband"`},
	} {
		before := c.dst.AppendState(nil)
		if err := c.dst.RestoreState(image); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%T: restore error %v, want one holding %q", c.dst, err, c.want)
		}
		if !bytes.Equal(c.dst.AppendState(nil), before) {
			t.Errorf("%T: a refused restore changed the scheduler", c.dst)
		}
	}
	if got := StateKind(image); got != "asha" {
		t.Errorf("StateKind = %q, want asha", got)
	}
}

// ModelASHA inherits ASHA's methods but not a codec: its TPE model is
// fit to the whole history, which an ASHA image does not hold. A Gate
// forwards the codec of what it wraps, and only that.
func TestSchedulersWithoutACodec(t *testing.T) {
	space := invariantSpace()
	model := NewModelASHA(ModelASHAConfig{Space: space, RNG: xrand.New(1), Eta: 3, MinResource: 1, MaxResource: 27})
	for name, sched := range map[string]Scheduler{
		"model-asha":      model,
		"gate(model)":     NewGate(model),
		"gate(hyperband)": NewGate(NewHyperband(HyperbandConfig{Space: space, RNG: xrand.New(1), Eta: 3, MinResource: 1, MaxResource: 27, MaxBracket: -1})),
	} {
		if CodecOf(sched) != nil {
			t.Errorf("%s: CodecOf found a codec", name)
		}
		if err := sched.(StateCodec).RestoreState(nil); !errors.Is(err, ErrNoState) {
			t.Errorf("%s: RestoreState = %v, want ErrNoState", name, err)
		}
	}
	if CodecOf(NewGate(NewASHA(ASHAConfig{Space: space, RNG: xrand.New(1), Eta: 3, MinResource: 1, MaxResource: 27}))) == nil {
		t.Error("a Gate over ASHA does not forward its codec")
	}
}

// A popped retry slot holds no configuration: the queue's consumed prefix
// pins nothing, in every scheduler that retries from one.
func TestRetryQueueReleasesPoppedJobs(t *testing.T) {
	space := invariantSpace()
	r := NewRandomSearch(RandomSearchConfig{Space: space, RNG: xrand.New(1), MaxResource: 4})
	v := NewVizier(VizierConfig{Space: space, RNG: xrand.New(1), MaxResource: 4})
	f := NewFabolas(FabolasConfig{Space: space, RNG: xrand.New(1), MaxResource: 4})
	for name, tc := range map[string]struct {
		sched Scheduler
		retry *retryQueue
	}{"random": {r, &r.retry}, "vizier": {v, &v.retry}, "fabolas": {f, &f.retry}} {
		var jobs []Job
		for i := 0; i < 3; i++ {
			job, _ := tc.sched.Next()
			jobs = append(jobs, job)
		}
		for _, j := range jobs {
			tc.sched.Report(Result{TrialID: j.TrialID, Config: j.Config, Failed: true})
		}
		if job, ok := tc.sched.Next(); !ok || job.TrialID != jobs[0].TrialID || !job.Config.Equal(jobs[0].Config) {
			t.Fatalf("%s: first retry %+v, want trial %d's job again", name, job, jobs[0].TrialID)
		}
		if held := tc.retry.jobs[0]; !held.Config.IsZero() {
			t.Fatalf("%s: the popped slot still holds trial %d's configuration %v", name, held.TrialID, held.Config)
		}
		if len(tc.retry.queued()) != 2 {
			t.Fatalf("%s: %d retries queued, want 2", name, len(tc.retry.queued()))
		}
	}
}

// fuzzSchedulers are the codec schedulers FuzzSchedulerState restores
// into, built fresh per input.
func fuzzSchedulers(space *searchspace.Space) []Scheduler {
	var out []Scheduler
	for _, tc := range invariantCases() {
		if s := tc.make(space, xrand.New(9)); CodecOf(s) != nil {
			out = append(out, tc.make(space, xrand.New(9)))
		}
	}
	return out
}

// FuzzSchedulerState restores arbitrary bytes into every codec
// scheduler: RestoreState never panics, an image it accepts is one the
// scheduler appends again byte for byte, and the restored scheduler
// runs. Run with:
//
//	go test ./internal/core -run '^$' -fuzz FuzzSchedulerState -fuzztime 10s
func FuzzSchedulerState(f *testing.F) {
	space := invariantSpace()
	for i, s := range fuzzSchedulers(space) {
		stream := &codecStream{jobs: 40 + 20*i, seed: uint64(i)}
		f.Add(s.(StateCodec).AppendState(nil))
		for more := true; more; _, more = stream.advance(s) {
		}
		image := s.(StateCodec).AppendState(nil)
		f.Add(image)
		f.Add(image[:len(image)/2])
	}
	f.Add([]byte("not an image"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range fuzzSchedulers(space) {
			c := s.(StateCodec)
			if c.RestoreState(data) != nil {
				continue
			}
			if again := c.AppendState(nil); !bytes.Equal(again, data) {
				t.Fatalf("%T accepted an image it appends differently:\n %x\n %x", s, data, again)
			}
			stream := &codecStream{jobs: 20, seed: 1}
			for more := true; more; _, more = stream.advance(s) {
			}
		}
	})
}
