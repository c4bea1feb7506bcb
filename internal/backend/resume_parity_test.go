package backend_test

// Resume-parity pinning: a journaled fixed-seed run killed at ANY
// committed journal offset and resumed must make bit-identical decisions
// — every issued job, sampled configuration value, reported loss and
// incumbent update — to the same run left uninterrupted. The test
// replays the kill at a spread of record boundaries (and at torn,
// mid-record byte offsets, which recovery must snap back to the previous
// boundary) and compares FNV digests of the full decision stream against
// a golden file, following the internal/cluster parity machinery. A
// second case runs four workers in lockstep, so that a flush carries
// several records, and kills at every boundary and torn byte inside one.
//
// Regenerate (only for an intentional, understood behaviour change):
//
//	go test ./internal/backend -run TestResumeParity -update-parity

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/searchspace"
	"repro/internal/state"
	"repro/internal/xrand"
)

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/resume_parity.json from the current implementation")

const (
	parityJobs      = 400
	paritySeed      = 99
	paritySnapEvery = 10 // small, so kill points land between snapshots
)

func paritySpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "lr", Type: searchspace.LogUniform, Lo: 1e-5, Hi: 1},
		searchspace.Param{Name: "momentum", Type: searchspace.Uniform, Lo: 0, Hi: 1},
		searchspace.Param{Name: "width", Type: searchspace.Choice, Choices: []float64{64, 128, 256, 512}},
	)
}

func parityScheduler(space *searchspace.Space) core.Scheduler {
	return core.NewASHA(core.ASHAConfig{
		Space: space, RNG: xrand.New(paritySeed), Eta: 4,
		MinResource: 1, MaxResource: 256,
	})
}

// parityObjective is deterministic and memoryless: the loss at resource
// `to` depends only on the configuration and `to`, never on `from` or
// the checkpoint, so re-training a trial rolled back to an older
// snapshot reproduces bit-identical losses. It still returns a
// checkpoint to exercise the snapshot/restore path.
func parityObjective(_ context.Context, cfg map[string]float64, _, to float64, _ interface{}) (float64, interface{}, error) {
	floor := 0.05 +
		0.1*math.Abs(math.Log10(cfg["lr"])+3) +
		0.3*math.Abs(cfg["momentum"]-0.9) +
		0.02*math.Abs(math.Log2(cfg["width"])-8)
	loss := floor + (3-floor)*math.Exp(-0.02*to)
	return loss, map[string]interface{}{"loss": loss, "to": to}, nil
}

// digestSched wraps a scheduler and records every decision — replayed and
// live alike — so an interrupted-and-resumed run produces one stream
// directly comparable to an uninterrupted run's.
type digestSched struct {
	inner   core.Scheduler
	space   *searchspace.Space
	lines   []string
	nexts   int
	reports int
	// unordered digests the decisions as a set, without the incumbent a
	// report left: what a run keeps when a kill reorders its completions.
	unordered bool
}

func newDigestSched(inner core.Scheduler, space *searchspace.Space) *digestSched {
	return &digestSched{inner: inner, space: space}
}

func (d *digestSched) Next() (core.Job, bool) {
	job, ok := d.inner.Next()
	if !ok {
		return job, false
	}
	d.nexts++
	line := fmt.Sprintf("N t=%d r=%d res=%x cfg=", job.TrialID, job.Rung, math.Float64bits(job.TargetResource))
	for _, p := range d.space.Params() {
		v, _ := job.Config.Lookup(p.Name)
		line += fmt.Sprintf("%x,", math.Float64bits(v))
	}
	d.lines = append(d.lines, line)
	return job, true
}

func (d *digestSched) Report(res core.Result) {
	d.reports++
	d.inner.Report(res)
	line := fmt.Sprintf("R t=%d r=%d loss=%x fail=%v", res.TrialID, res.Rung, math.Float64bits(res.Loss), res.Failed)
	if best, ok := d.inner.Best(); ok && !d.unordered {
		line += fmt.Sprintf(" inc=%d/%x", best.TrialID, math.Float64bits(best.Loss))
	}
	d.lines = append(d.lines, line)
}

func (d *digestSched) Best() (core.Best, bool) { return d.inner.Best() }
func (d *digestSched) Done() bool              { return d.inner.Done() }

func (d *digestSched) digest() string {
	lines := d.lines
	if d.unordered {
		lines = slices.Clone(lines)
		sort.Strings(lines)
	}
	h := fnv.New64a()
	for _, line := range lines {
		_, _ = h.Write([]byte(line))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// boundaryWriter keeps a journal image and the offset just past each
// Write: the journal commits one flush per Write, so these are the flush
// boundaries.
type boundaryWriter struct {
	bytes.Buffer
	flushes []int
}

func (w *boundaryWriter) Write(p []byte) (int, error) {
	n, err := w.Buffer.Write(p)
	w.flushes = append(w.flushes, w.Len())
	return n, err
}

// recordBounds walks the frame headers of a journal image and returns the
// offset just past each record: past the meta, and past every later frame
// but a names frame, which commits with the issue behind it.
func recordBounds(image []byte) []int {
	const magic, header = 8, 8 // "ASHAJNL" + version; body length + CRC32C
	var bounds []int
	for off := magic; off < len(image); {
		body := off + header
		off = body + int(binary.LittleEndian.Uint32(image[off:]))
		if image[body] != 'N' {
			bounds = append(bounds, off)
		}
	}
	return bounds
}

// parityRun is one fixed-seed journaled run and the way to resume it.
type parityRun struct {
	jobs      int
	sched     func(*searchspace.Space) core.Scheduler
	exec      func(context.Context) backend.Backend
	unordered bool // see digestSched
}

// oneWorker is the sequential ASHA run the golden stream belongs to.
var oneWorker = parityRun{jobs: parityJobs, sched: parityScheduler,
	exec: func(ctx context.Context) backend.Backend { return exec.NewPool(ctx, parityObjective, 1) }}

func (p parityRun) newSched() *digestSched {
	space := paritySpace()
	ds := newDigestSched(p.sched(space), space)
	ds.unordered = p.unordered
	return ds
}

// uninterrupted journals the full run and returns its decisions and the
// journal's writer.
func (p parityRun) uninterrupted(t *testing.T) (*digestSched, *boundaryWriter) {
	t.Helper()
	buf := &boundaryWriter{}
	journal, err := state.NewWriter(buf, state.Meta{Experiment: "parity", Seed: paritySeed})
	if err != nil {
		t.Fatal(err)
	}
	ds := p.newSched()
	ctx := context.Background()
	if _, err := backend.Drive(ctx, ds, p.exec(ctx), backend.Options{
		MaxJobs: p.jobs, Journal: journal, SnapshotEvery: paritySnapEvery,
	}); err != nil {
		t.Fatal(err)
	}
	return ds, buf
}

// resumeFrom kills the run at the given byte offset of its journal
// (recovery snaps torn cuts back to the previous record boundary),
// resumes it, and returns the combined replayed+continued decisions.
func (p parityRun) resumeFrom(t *testing.T, journal []byte, cut int) (*digestSched, int) {
	t.Helper()
	scan, err := state.NewScanner(journal[:cut])
	if err != nil {
		t.Fatalf("recover at offset %d: %v", cut, err)
	}
	ds := p.newSched()
	rs, err := backend.ReplayScan(scan, ds, backend.Options{}) // as Tuner.Resume replays
	if err != nil {
		t.Fatalf("replay at offset %d: %v", cut, err)
	}
	relaunched := len(rs.Relaunch)
	ctx := context.Background()
	if _, err := backend.Drive(ctx, ds, p.exec(ctx), backend.Options{
		MaxJobs: p.jobs, Resume: rs,
	}); err != nil {
		t.Fatalf("resumed drive at offset %d: %v", cut, err)
	}
	return ds, relaunched
}

// runUninterrupted journals the one-worker run and returns its decision
// digest, the journal image and its record boundaries.
func runUninterrupted(t *testing.T) (*digestSched, []byte, []int) {
	t.Helper()
	ds, buf := oneWorker.uninterrupted(t)
	return ds, buf.Bytes(), recordBounds(buf.Bytes())
}

func resumeFrom(t *testing.T, journal []byte, cut int) (*digestSched, int) {
	t.Helper()
	return oneWorker.resumeFrom(t, journal, cut)
}

// lockstep makes a pool of several workers deterministic: Await waits
// for every job launched and returns their completions by trial, so a
// fill and a batch are as wide as the pool whatever the goroutines do.
type lockstep struct {
	*exec.Pool
	out   int
	batch []backend.Completion
}

func (b *lockstep) Launch(job core.Job) {
	b.out++
	b.Pool.Launch(job)
}

func (b *lockstep) Await(ctx context.Context) ([]backend.Completion, error) {
	b.batch = b.batch[:0]
	for b.out > 0 {
		got, err := b.Pool.Await(ctx)
		if err != nil {
			return nil, err
		}
		b.batch = append(b.batch, got...)
		b.out -= len(got)
	}
	sort.Slice(b.batch, func(i, k int) bool { return b.batch[i].Job.TrialID < b.batch[k].Job.TrialID })
	return b.batch, nil
}

// fourWorkers is one synchronous-halving bracket over four workers in
// lockstep. A kill inside a batch's reports leaves some of them replayed
// before the rest are relaunched, an order no uninterrupted run has — so
// the decisions are compared as a set, which a rung barrier keeps the
// same under any completion order.
var fourWorkers = parityRun{jobs: 85, unordered: true,
	sched: func(space *searchspace.Space) core.Scheduler {
		return core.NewSHA(core.SHAConfig{Space: space, RNG: xrand.New(paritySeed), N: 64, Eta: 4, MinResource: 1, MaxResource: 64})
	},
	exec: func(ctx context.Context) backend.Backend {
		return &lockstep{Pool: exec.NewPool(ctx, parityObjective, 4)}
	}}

// parityGolden is the golden record of the uninterrupted run.
type parityGolden struct {
	Digest  string `json:"digest"`
	Nexts   int    `json:"nexts"`
	Reports int    `json:"reports"`
	// FourWorkers digests the fourWorkers run's decisions as a set.
	FourWorkers string `json:"fourWorkers"`
}

func TestResumeParity(t *testing.T) {
	full, journal, bounds := runUninterrupted(t)
	wide, wideJournal := fourWorkers.uninterrupted(t)
	got := parityGolden{Digest: full.digest(), Nexts: full.nexts, Reports: full.reports, FourWorkers: wide.digest()}

	path := filepath.Join("testdata", "resume_parity.json")
	if *updateParity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-parity): %v", err)
	}
	var want parityGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("uninterrupted run diverged from golden: got %+v, want %+v", got, want)
	}

	// Kill at a spread of committed record boundaries: just after the
	// meta, early, mid-run, late, and on the final record. Odd/even body
	// indices alternate issue/report records, so both "killed with a job
	// in flight" and "killed at rest" are exercised.
	if len(bounds) < 20 {
		t.Fatalf("journal has only %d records", len(bounds))
	}
	cuts := []int{
		bounds[0], // only the meta committed: resume == fresh run
		bounds[1], // first issue in flight
		bounds[2], // first report committed
		bounds[len(bounds)/10],
		bounds[len(bounds)/3],
		bounds[len(bounds)/2],
		bounds[2*len(bounds)/3],
		bounds[len(bounds)-2],
		bounds[len(bounds)-1], // complete journal: nothing left to run
	}
	sawRelaunch := false
	for _, cut := range cuts {
		ds, relaunched := resumeFrom(t, journal, cut)
		if relaunched > 0 {
			sawRelaunch = true
		}
		if d := ds.digest(); d != want.Digest {
			t.Errorf("kill at offset %d: resumed decision stream diverged: digest %s, want %s (nexts %d vs %d, reports %d vs %d)",
				cut, d, want.Digest, ds.nexts, want.Nexts, ds.reports, want.Reports)
		}
	}
	if !sawRelaunch {
		t.Error("no kill point left a job in flight; the relaunch path went untested")
	}

	// Torn cuts mid-record: recovery must discard the partial frame and
	// resume from the previous boundary with identical decisions.
	for _, cut := range []int{bounds[3] + 7, bounds[len(bounds)/2] + 19, len(journal) - 3} {
		ds, _ := resumeFrom(t, journal, cut)
		if d := ds.digest(); d != want.Digest {
			t.Errorf("torn kill at byte %d: resumed decision stream diverged: digest %s, want %s", cut, d, want.Digest)
		}
	}

	// Kills inside a flush that carries several records: at every record
	// boundary within it — a committed prefix of a fill's issues, none of
	// them launched, or of a batch's reports, none of them ingested — and
	// at torn bytes in the header and in the body of the frame behind each.
	image, start, inside := wideJournal.Bytes(), 0, 0
	records := recordBounds(image)
	for _, end := range wideJournal.flushes {
		for _, b := range records {
			if b <= start || b >= end {
				continue
			}
			inside++
			for _, cut := range []int{b, b + 3, b + 17} {
				ds, _ := fourWorkers.resumeFrom(t, image, cut)
				if d := ds.digest(); d != want.FourWorkers {
					t.Errorf("kill at byte %d, inside the flush %d-%d: resumed decisions diverged: digest %s, want %s (nexts %d vs %d, reports %d vs %d)",
						cut, start, end, d, want.FourWorkers, ds.nexts, wide.nexts, ds.reports, wide.reports)
				}
			}
		}
		start = end
	}
	if inside < fourWorkers.jobs {
		t.Errorf("only %d record boundaries fall inside a flush; the four-worker run did not group its records", inside)
	}
}

// TestResumeParityDoubleKill re-kills an already-resumed run: the
// continuation journal appends to the recovered prefix, and a second
// resume must still converge on the same stream.
func TestResumeParityDoubleKill(t *testing.T) {
	full, journal, bounds := runUninterrupted(t)

	// First kill: keep a prefix, resume with journaling ON into the same
	// buffer (as RecoverFile's append does), but stop again early by
	// capping MaxJobs below the full budget.
	cut := bounds[len(bounds)/4]
	prefix := append([]byte{}, journal[:cut]...)
	rec, err := state.Recover(prefix)
	if err != nil {
		t.Fatal(err)
	}
	space := paritySpace()
	ds := newDigestSched(parityScheduler(space), space)
	rs, err := backend.Replay(rec, ds, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBuffer(prefix)
	journal2 := state.ReopenWriter(buf, 1+len(rec.Records))
	ctx := context.Background()
	pool := exec.NewPool(ctx, parityObjective, 1)
	if _, err := backend.Drive(ctx, ds, pool, backend.Options{
		MaxJobs: parityJobs / 2, Journal: journal2, SnapshotEvery: paritySnapEvery, Resume: rs,
	}); err != nil {
		t.Fatal(err)
	}

	// Second kill + final resume to completion.
	rec2, err := state.Recover(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Truncated {
		t.Fatal("continuation journal did not append cleanly")
	}
	ds2 := newDigestSched(parityScheduler(space), space)
	rs2, err := backend.Replay(rec2, ds2, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool2 := exec.NewPool(ctx, parityObjective, 1)
	if _, err := backend.Drive(ctx, ds2, pool2, backend.Options{
		MaxJobs: parityJobs, Resume: rs2,
	}); err != nil {
		t.Fatal(err)
	}
	if ds2.digest() != full.digest() {
		t.Fatalf("twice-killed run diverged: digest %s, want %s (nexts %d vs %d)",
			ds2.digest(), full.digest(), ds2.nexts, full.nexts)
	}
}
