package backend

import (
	"testing"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/xrand"
)

// The issued set answers as the map of exact pairs it replaced, on a
// stream shaped like the schedulers': trials arriving in order, rungs
// climbing, retried, falling back as PBT's exploit does — and on rungs
// past the bit mask, and past the 16 bits the old int64 key kept of a
// rung, where (t, r) and (t, r+65536) were one pair to it.
func TestIssuedSetAgainstAMapOfPairs(t *testing.T) {
	rng := xrand.New(3)
	var set issuedSet
	ref := map[[2]int]bool{}
	rungs := []int{0, 1, 2, 5, 63, 64, 65, 200, 65535, 65536, 65536 + 5, 1 << 20}
	trials, dups := 0, 0
	for i := 0; i < 20_000; i++ {
		trial := trials
		if trials == 0 || rng.Float64() < 0.4 {
			trials++ // a fresh sample
		} else {
			trial = rng.IntN(trials) // a promotion, a retry, or a step back
		}
		rung := rungs[rng.IntN(len(rungs))]
		if rng.Float64() < 0.5 {
			rung = rng.IntN(8)
		}
		job := core.Job{TrialID: trial, Rung: rung}
		want := state.KindSample
		if ref[[2]int{trial, rung}] {
			want = state.KindRetry
			dups++
		} else if rung > 0 {
			want = state.KindPromote
		}
		ref[[2]int{trial, rung}] = true
		if got := annotateIssue(&set, job).Kind; got != want {
			t.Fatalf("issue %d, trial %d rung %d: annotated %q, want %q", i, trial, rung, got, want)
		}
	}
	if dups < 1000 || len(set.over) < 1000 || set.rungs.Len() < 1000 {
		t.Fatalf("%d repeats, %d pairs past the mask, %d trials in it; the stream lost its point", dups, len(set.over), set.rungs.Len())
	}
}
