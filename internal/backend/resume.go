package backend

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/searchspace"
	"repro/internal/state"
)

// ResumeState is the outcome of replaying a recovered journal: everything
// Drive needs to continue the run exactly where the journal left off.
type ResumeState struct {
	// Run carries the restored counters, incumbent series and first-R
	// accounting; Drive mutates it in place as the run continues.
	Run *metrics.Run
	// Relaunch are the journaled in-flight jobs — issued, never reported —
	// in issue order. Drive relaunches them before consulting the
	// scheduler, without new issue records.
	Relaunch []core.Job
	// Trials is the restored trial table, by trial: the union of the
	// journal's snapshots, later over earlier, plus a zero-resource entry
	// for every issued trial no snapshot names.
	Trials []state.TrialSnap
	// TimeOffset is the journal's maximum recorded time; the resumed
	// run's clock continues from it so the incumbent series stays
	// monotone.
	TimeOffset float64

	issued        issuedSet       // (trial, rung) pairs issued, for retry annotation
	rungCompleted []int           // successful completions per rung, for status
	codec         core.StateCodec // the scheduler's, when it can be checkpointed
	pace          checkpointPace  // the journal's last checkpoint, for the writer that continues it
}

// checkpointPace is where a journal stands against its last checkpoint
// record: what decides when its writer stages the next (journalWriter).
type checkpointPace struct {
	size  int64 // the checkpoint frame's bytes; 0 before the first
	since int64 // the bytes journaled behind it
	stale bool  // an issue or report is among them
}

// Replay reconstructs a full engine ResumeState from a recovered
// journal. A scheduler that can be checkpointed (core.StateCodec) is
// restored from the journal's last checkpoint record, and only the
// records after it are replayed; any other replays every record. Replay
// feeds records through the scheduler, reproducing its state bit for
// bit: every issue record pulls the scheduler's own Next decision and
// validates it against the journal (trial, rung, target resource,
// inherit donor, and every configuration value, all bit-exact), and
// every report record is paired with its oldest outstanding issue and
// flows through the same ingest path live completions use, so counters,
// incumbent series and first-R accounting are rebuilt identically. There
// is one replay path, the replayer's: Tuner.Resume, Manager.Resume and a
// federated adopt feed it from the journal image (ReplayScan), Replay
// from records already collected.
//
// The scheduler must be freshly constructed, deterministic and seeded
// exactly as the journaled run was. A divergence in the records it steps
// (wrong seed, changed algorithm or space, edited journal) is detected
// and returned as an error rather than silently corrupting the run; a
// checkpoint of another configuration — its settings or its search
// space's parameters — is refused by the scheduler, naming what differs.
// The records before the last checkpoint are not stepped: they are
// checked as syntax (each frame's checksum) and for the trial table
// their snapshots build, so an edit there that keeps both is not seen.
//
// opt should match the original run's Evaluator/MaxResource settings;
// OnResult is typically nil during replay so progress callbacks do not
// re-fire for jobs that completed before the crash.
func Replay(rec *state.Recovered, sched core.Scheduler, opt Options) (*ResumeState, error) {
	return newReplayer(sched, opt).run(&collected{recs: rec.Records})
}

// ReplayScan is Replay of a journal as it is decoded: no record built,
// one validating pass over the image when the scheduler can be
// checkpointed and one from the last checkpoint on, a single pass
// otherwise. It leaves s at its recovery point; a read that fails
// (Scanner.Err) is its error.
func ReplayScan(s *state.Scanner, sched core.Scheduler, opt Options) (*ResumeState, error) {
	return newReplayer(sched, opt).run(&scanned{s: s, from: s.Mark()})
}

// records is a journal's body as the replayer reads it: the record, and
// an issue's configuration when the record does not hold it itself. Both
// are valid until the next call of next.
type records interface {
	next() (r *state.Record, vals []float64, ok bool)
	mark()      // remember the position just before the last record next returned, a checkpoint
	rewind()    // return to the remembered position, the first record until mark
	pos() int64 // the byte offset past the last record, when known
	err() error // what stopped next short of the end
}

// scanned reads a journal image as it is decoded.
type scanned struct {
	s    *state.Scanner
	from state.Mark
}

func (c *scanned) next() (*state.Record, []float64, bool) {
	if !c.s.Scan() {
		return nil, nil, false
	}
	return &c.s.Rec, c.s.Vals, true
}
func (c *scanned) mark()      { c.from = c.s.Back() }
func (c *scanned) rewind()    { c.s.Seek(c.from) }
func (c *scanned) pos() int64 { return c.s.CleanOffset }
func (c *scanned) err() error { return c.s.Err() }

// collected reads records already collected; their offsets are unknown.
type collected struct {
	recs     []state.Record
	at, from int
}

func (c *collected) next() (*state.Record, []float64, bool) {
	if c.at == len(c.recs) {
		return nil, nil, false
	}
	c.at++
	return &c.recs[c.at-1], nil, true
}
func (c *collected) mark()      { c.from = c.at - 1 }
func (c *collected) rewind()    { c.at = c.from }
func (c *collected) pos() int64 { return 0 }
func (c *collected) err() error { return nil }

// replayer steps a journal's records through a scheduler, one at a time.
type replayer struct {
	rs   *ResumeState
	lane *Lane
	n    int // the record being read
	// The trial table, indexed by trial id; Trial is -1 where the journal
	// has not issued that trial (yet).
	table []state.TrialSnap
	out   pending   // the issued, unreported jobs
	vals  []float64 // scratch: a collected issue's Config as a vector
}

func newReplayer(sched core.Scheduler, opt Options) *replayer {
	rs := &ResumeState{Run: &metrics.Run{FirstRTime: math.Inf(1)}, codec: core.CodecOf(sched)}
	// Replayed completions never re-emit events (the emitter has no bus),
	// mirroring the OnResult convention above — consumers of /v1/events
	// see each pre-crash event at most once.
	return &replayer{rs: rs, lane: &Lane{sched: sched, opt: opt, run: rs.Run, em: emitter{maxRung: -1}}}
}

// run replays recs. With a codec, a first pass notes every record's part
// in the trial table and finds the last checkpoint, remembering only
// where it starts; the pass over, that checkpoint is read again, the
// scheduler and lane are restored from it, and the records behind it are
// stepped. A journal without one is stepped whole, as is any journal of a
// scheduler without a codec — in a single pass.
func (p *replayer) run(recs records) (*ResumeState, error) {
	if p.rs.codec != nil {
		var end int64 // the offset just past the last checkpoint
		behind := 0   // the ordinal of the record after it, 0 for none
		for p.n = 0; ; p.n++ {
			before := recs.pos()
			r, _, ok := recs.next()
			if !ok {
				break
			}
			if err := p.note(r); err != nil {
				return nil, p.fail(err)
			}
			if r.Checkpoint != nil {
				end, behind, p.rs.pace.size = recs.pos(), p.n+1, recs.pos()-before
				recs.mark()
			}
		}
		if err := recs.err(); err != nil {
			return nil, p.fail(err)
		}
		p.rs.pace.since, p.n = recs.pos()-end, behind
		if recs.rewind(); behind > 0 {
			r, _, ok := recs.next()
			if !ok || r.Checkpoint == nil {
				return nil, p.fail(cmp.Or(recs.err(), errors.New("the last checkpoint is not where the first pass found it")))
			}
			if err := p.restore(r.Checkpoint); err != nil {
				return nil, err
			}
		}
	}
	for ; ; p.n++ {
		r, vals, ok := recs.next()
		if !ok {
			break
		}
		if err := p.step(r, vals); err != nil {
			return nil, p.fail(err)
		}
	}
	if err := recs.err(); err != nil {
		return nil, p.fail(err)
	}
	return p.finish(), nil
}

func (p *replayer) fail(err error) error {
	return fmt.Errorf("backend: replay record %d: %w", p.n, err)
}

// note takes what a record says outright and stepping it again leaves
// as it is: its part in the trial table, the issued pairs, the clock and
// the first-R time. That is all replay needs of a record the restored
// checkpoint covers; the counters and the rest are the checkpoint's.
func (p *replayer) note(r *state.Record) error {
	switch {
	case r.Issue != nil:
		p.issued(r.Issue.Trial)
		p.rs.issued.add(r.Issue.Trial, r.Issue.Rung)
	case r.Report != nil:
		if !r.Report.Failed {
			p.lane.reachedR(r.Report.Resource, r.Report.Time)
		}
		p.rs.TimeOffset = max(p.rs.TimeOffset, r.Report.Time)
	case r.Snap != nil:
		return p.snap(r.Snap)
	}
	return nil
}

// step replays one record; vals is an issue's configuration when the
// record does not hold it itself (state.Scanner). A checkpoint record is
// passed over: replay restores the last one or steps every record.
func (p *replayer) step(r *state.Record, vals []float64) error {
	switch {
	case r.Issue != nil:
		return p.issue(r.Issue, vals)
	case r.Report != nil:
		return p.report(r.Report)
	case r.Snap != nil:
		return p.snap(r.Snap)
	}
	return nil
}

// issued marks a trial issued in the trial table, which grows by
// doubling, in one step.
func (p *replayer) issued(trial int) {
	if n := len(p.table); trial >= n {
		p.table = append(p.table, make([]state.TrialSnap, max(trial+1, 2*n)-n)...)
		for ; n < len(p.table); n++ {
			p.table[n].Trial = -1
		}
	}
	p.table[trial].Trial = trial
}

func (p *replayer) issue(is *state.Issue, vals []float64) error {
	job, ok := p.lane.sched.Next()
	if !ok {
		return errors.New("journal holds an issued job but the scheduler declined — journal does not match this scheduler configuration")
	}
	if vals == nil {
		for _, name := range is.Names {
			p.vals = append(p.vals, is.Config[name])
		}
		vals, p.vals = p.vals, p.vals[:0]
	}
	if err := matchIssue(job, is, vals); err != nil {
		return err
	}
	p.issued(job.TrialID)
	p.out.push(job)
	p.rs.Run.IssuedJobs++
	p.rs.issued.add(job.TrialID, job.Rung)
	p.rs.pace.stale = true
	return nil
}

func (p *replayer) report(r *state.Report) error {
	job, ok := p.out.take(r.Trial, r.Rung)
	if !ok {
		return fmt.Errorf("report for trial %d rung %d has no outstanding issue — corrupt journal", r.Trial, r.Rung)
	}
	ingest(p.lane, Completion{
		Job:      job,
		Loss:     r.Loss,
		TrueLoss: r.TrueLoss,
		Resource: r.Resource,
		Time:     r.Time,
		Failed:   r.Failed,
	})
	p.rs.TimeOffset = max(p.rs.TimeOffset, r.Time)
	p.rs.pace.stale = true
	return nil
}

func (p *replayer) snap(s *state.Snapshot) error {
	for _, ts := range s.Trials {
		if ts.Trial >= len(p.table) || p.table[ts.Trial].Trial < 0 {
			return fmt.Errorf("snapshot of trial %d, which the journal never issued — corrupt journal", ts.Trial)
		}
		p.table[ts.Trial] = ts
	}
	p.rs.TimeOffset = max(p.rs.TimeOffset, s.Time)
	return nil
}

// restore puts the scheduler and the lane where the checkpoint says
// stepping the records before it leaves them.
func (p *replayer) restore(c *state.Checkpoint) error {
	if err := p.rs.codec.RestoreState(c.Sched); err != nil {
		return fmt.Errorf("backend: restore the journal's last checkpoint: %w", err)
	}
	run := p.rs.Run
	run.IssuedJobs, run.CompletedJobs, run.FailedJobs = c.Issued, c.Completed, c.Failed
	run.Series, p.lane.rungCompleted = clone(c.Series), clone(c.RungCompleted)
	for _, j := range c.InFlight {
		p.out.push(core.Job{TrialID: j.Trial, Config: searchspace.FromValues(c.Names, j.Vals), Rung: j.Rung,
			TargetResource: j.Target, InheritFrom: j.Inherit})
	}
	return nil
}

// clone copies s, nil when empty: what stepping leaves where nothing was
// ever appended.
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

func (p *replayer) finish() *ResumeState {
	rs := p.rs
	rs.Relaunch, rs.rungCompleted = p.out.list(), p.lane.rungCompleted
	// Restore the trial table: the checkpoints last snapshotted, and zero
	// entries for trials no snapshot reached. Those trials' observations
	// replayed into the scheduler above; only their training state is
	// lost, and a zero entry makes them retrain from scratch if relaunched
	// instead of vanishing from trial accounting — exactly the rollback
	// semantics of a worker crash.
	rs.Trials = slices.DeleteFunc(p.table, func(ts state.TrialSnap) bool { return ts.Trial < 0 })
	return rs
}

// pending is a lane's issued, unreported jobs in issue order — the
// relaunch queue a resume hands the engine, and the in-flight list of
// the lane's checkpoints. A report settles the oldest job of its (trial,
// rung). While at most searchMax jobs are out, a search finds it; past
// that an index by trial does, built then, and used while no trial has
// had two jobs out at once (multi), which no scheduler in the tree does —
// so a lane costs nothing per trial unless it runs that many jobs at
// once, and a report costs the same however many it does.
type pending struct {
	// jobs, TrialID -1 once taken; by trial id, at holds one more than
	// the index of the trial's latest job (0: none), nil while unbuilt.
	jobs  []core.Job
	at    []int32
	dead  int
	multi bool
}

// searchMax is how many jobs a search for a report's may pass over.
const searchMax = 64

func (p *pending) push(job core.Job) {
	p.jobs = append(p.jobs, job)
	switch {
	case p.at != nil:
		p.point(len(p.jobs) - 1)
	case len(p.jobs)-p.dead > searchMax:
		for i, j := range p.jobs {
			if j.TrialID >= 0 {
				p.point(i)
			}
		}
	}
}

// point indexes jobs[i] by its trial.
func (p *pending) point(i int) {
	t := p.jobs[i].TrialID
	if t >= len(p.at) {
		p.at = core.GrowTo(p.at, t+1)
	}
	p.multi = p.multi || p.at[t] != 0
	p.at[t] = int32(i + 1)
}

// take removes and returns the oldest job of (trial, rung).
func (p *pending) take(trial, rung int) (core.Job, bool) {
	k := -1
	switch {
	case p.at == nil || p.multi:
		k = slices.IndexFunc(p.jobs, func(j core.Job) bool { return j.TrialID == trial && j.Rung == rung })
	case uint(trial) < uint(len(p.at)):
		k = int(p.at[trial]) - 1
	}
	if k < 0 || p.jobs[k].Rung != rung {
		return core.Job{}, false
	}
	job := p.jobs[k]
	if p.jobs[k] = (core.Job{TrialID: -1}); p.at != nil {
		p.at[trial] = 0
	}
	// Compacting early keeps a search short and a narrow lane's list near
	// its in-flight count, which a writer holds for the life of the run.
	if p.dead++; p.dead > 8+len(p.jobs)/2 {
		p.compact()
	}
	return job, true
}

// compact drops the taken jobs.
func (p *pending) compact() {
	live := p.jobs[:0]
	for _, j := range p.jobs {
		if j.TrialID >= 0 {
			if live = append(live, j); p.at != nil {
				p.at[j.TrialID] = int32(len(live))
			}
		}
	}
	clear(p.jobs[len(live):])
	p.jobs, p.dead = live, 0
}

// list returns the jobs in issue order, nil for none; it is the list's
// own slice.
func (p *pending) list() []core.Job {
	if p.compact(); len(p.jobs) == 0 {
		return nil
	}
	return p.jobs
}

// matchIssue validates that the scheduler's regenerated decision is the
// journaled one, bit for bit; vals are the journaled configuration, one
// value per name of is.Names.
func matchIssue(job core.Job, is *state.Issue, vals []float64) error {
	if job.TrialID != is.Trial || job.Rung != is.Rung || job.InheritFrom != is.Inherit ||
		math.Float64bits(job.TargetResource) != math.Float64bits(is.Target) {
		return fmt.Errorf("backend: journal/scheduler divergence: journal issued trial %d rung %d target %v inherit %d, scheduler produced trial %d rung %d target %v inherit %d (wrong seed, algorithm, or edited journal?)",
			is.Trial, is.Rung, is.Target, is.Inherit, job.TrialID, job.Rung, job.TargetResource, job.InheritFrom)
	}
	names, got := job.Config.Names(), job.Config.Values()
	if len(got) != len(vals) || len(is.Names) != len(vals) {
		return fmt.Errorf("backend: journal/scheduler divergence on trial %d: journal config has %d parameters, scheduler sampled %d", is.Trial, len(vals), len(got))
	}
	for i, v := range vals {
		if is.Names[i] != names[i] || math.Float64bits(got[i]) != math.Float64bits(v) {
			return fmt.Errorf("backend: journal/scheduler divergence on trial %d parameter %q: journal %v, scheduler %q %v", is.Trial, is.Names[i], v, names[i], got[i])
		}
	}
	return nil
}
