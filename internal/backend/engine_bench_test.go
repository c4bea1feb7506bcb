package backend_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/exec"
	"repro/internal/state"
)

// countedFile is a journal file that counts its Write calls; Sync is the
// file's own.
type countedFile struct {
	*os.File
	writes int
}

func (f *countedFile) Write(p []byte) (int, error) {
	f.writes++
	return f.File.Write(p)
}

// BenchmarkEngineJournal is the engine's journaled hot path with nothing
// else on it: 64 lanes of ASHA over the in-process pool (four workers a
// lane) and a free objective, each lane journaling to its own file. It
// reports the time and the Write calls one job costs; the Sync variant
// turns SyncEach on, so the difference is what an fsync per flush costs
// at the batch sizes the syncs themselves produce.
func BenchmarkEngineJournal(b *testing.B)     { benchmarkEngineJournal(b, false) }
func BenchmarkEngineJournalSync(b *testing.B) { benchmarkEngineJournal(b, true) }

func benchmarkEngineJournal(b *testing.B, syncEach bool) {
	const lanes, jobsPerLane = 64, 250
	dir := b.TempDir()
	writes := 0
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		pool := exec.NewPool(ctx, parityObjective, 4*lanes)
		e := backend.NewEngine(pool, nil)
		files := make([]*countedFile, lanes)
		for k := range files {
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("lane%02d.journal", k)))
			if err != nil {
				b.Fatal(err)
			}
			files[k] = &countedFile{File: f}
			journal, err := state.NewWriter(files[k], state.Meta{Experiment: "bench", Seed: uint64(k)})
			if err != nil {
				b.Fatal(err)
			}
			journal.SyncEach = syncEach
			space := paritySpace()
			e.AddLane(parityScheduler(space), pool.Lane(e.NextLane(), parityObjective),
				backend.Options{MaxJobs: jobsPerLane, Journal: journal}, k, "")
		}
		if err := e.Run(ctx); err != nil {
			b.Fatal(err)
		}
		for _, f := range files {
			writes += f.writes
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	jobs := float64(b.N * lanes * jobsPerLane)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/jobs, "ns/job")
	b.ReportMetric(float64(writes)/jobs, "writes/job")
}
