//go:build go1.24

package backend

// Before Go 1.24 the PCG generator has no AppendBinary, and each
// scheduler image pays one 20-byte allocation for its generator's state
// (xrand): the gate below holds from 1.24 on.

import (
	"context"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/searchspace"
	"repro/internal/state"
	"repro/internal/xrand"
)

// TestCheckpointAllocs: once the engine's checkpoint buffer has grown to
// a lane's image, a periodic checkpoint of a 15 000-job ASHA lane — its
// in-flight list and its scheduler's image, encoded with the snapshot
// behind them and written — allocates nothing.
func TestCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	space := searchspace.New(
		searchspace.Param{Name: "lr", Type: searchspace.LogUniform, Lo: 1e-4, Hi: 1},
		searchspace.Param{Name: "momentum", Type: searchspace.Uniform, Lo: 0, Hi: 1})
	sched := core.NewGate(core.NewASHA(core.ASHAConfig{Space: space, RNG: xrand.New(7), Eta: 4, MinResource: 1, MaxResource: 256}))
	journal, err := state.NewWriter(io.Discard, state.Meta{Experiment: "allocs", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ex := &stubExec{capacity: 2, failLane: -1}
	e := NewEngine(ex, nil)
	l := e.AddLane(sched, ex.view(0), Options{MaxJobs: 15_000, Journal: journal, Gate: sched}, 0, "")
	if err := e.Run(context.Background()); err != nil || l.err != nil || l.run.CompletedJobs != 15_000 {
		t.Fatalf("run: %v, %v, %d completed", err, l.err, l.run.CompletedJobs)
	}
	wrote := journal.Records()
	allocs := testing.AllocsPerRun(20, func() {
		l.jw.stale, l.jw.ckptSize = true, 0 // due at once
		if err := l.jw.snapshot(l, &e.ckpt, 1, false); err != nil {
			t.Fatal(err)
		}
	})
	if got := journal.Records() - wrote; got != 2*21 {
		t.Fatalf("%d records written, want a checkpoint and a snapshot a call", got)
	}
	t.Logf("%.1f allocations a checkpoint of %d bytes", allocs, l.jw.ckptSize)
	if allocs != 0 {
		t.Fatalf("a periodic checkpoint allocates %.1f objects", allocs)
	}
}
