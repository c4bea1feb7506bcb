package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
)

// spanName names a call into one layer's interface.
type spanName uint8

const (
	spanDrive     spanName = iota // backend.Drive, the engine
	spanNext                      // core.Scheduler.Next
	spanReport                    // core.Scheduler.Report
	spanLaunch                    // backend.Backend.Launch
	spanAwait                     // backend.Backend.Await
	spanWrite                     // Write on the io.Writer under the journal
	spanProgress                  // the progress callback
	spanRecover                   // state.Recover
	spanReplay                    // backend.Replay
	spanObjective                 // the objective, on a worker goroutine
	spanNames                     // count
)

var spanLabels = [spanNames]string{
	"backend.Drive", "core.Next", "core.Report", "backend.Launch", "backend.Await",
	"state.Write", "progress", "state.Recover", "backend.Replay", "objective",
}

// span is one timed call: name, start, end, and the span that caused it.
// Spans of one job share its identifier.
type span struct {
	name       spanName
	parent     int32 // index of the enclosing span, -1 for a root
	job        int64 // trial<<16|rung, -1 when the call is not about one job
	start, end int64 // ns since the recorder's epoch
}

func jobID(trial, rung int) int64 { return backend.SeenKey(trial, rung) }

// recorder keeps spans in memory. begin/end nest and belong to one
// goroutine (the engine's); leaf may be called from any.
type recorder struct {
	epoch time.Time
	spans []span  // engine goroutine only
	open  []int32 // stack of unfinished spans

	mu     sync.Mutex
	leaves []span // spans of worker goroutines
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under the innermost open one. The clock is read
// last on the way in and first on the way out, so the recorder's own
// work lands in the parent's self time.
func (r *recorder) begin(name spanName, job int64) {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, int32(len(r.spans)))
	r.spans = append(r.spans, span{name: name, parent: parent, job: job, start: r.now()})
}

func (r *recorder) end() {
	t := r.now()
	n := len(r.open) - 1
	r.spans[r.open[n]].end = t
	r.open = r.open[:n]
}

// leaf records a finished span that no span on its goroutine encloses.
func (r *recorder) leaf(name spanName, job int64, start, end int64) {
	r.mu.Lock()
	r.leaves = append(r.leaves, span{name: name, parent: -1, job: job, start: start, end: end})
	r.mu.Unlock()
}

// take returns every recorded span, engine spans first so that parent
// indices hold, and empties the recorder. The result is valid until the
// next take.
func (r *recorder) take() []span {
	r.mu.Lock()
	all := append(r.spans, r.leaves...)
	r.leaves = r.leaves[:0]
	r.mu.Unlock()
	r.spans = all[:0]
	r.open = r.open[:0]
	return all
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	calls int
	total time.Duration // Σ (end − start)
	self  time.Duration // total minus the time covered by child spans
}

// foldSpans sums the spans by name. A span's self time is its duration
// minus the durations of its direct children.
func foldSpans(spans []span) [spanNames]layerTime {
	var out [spanNames]layerTime
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		d := s.end - s.start
		lt := &out[s.name]
		lt.calls++
		lt.total += time.Duration(d)
		lt.self += time.Duration(d - children[i])
	}
	return out
}

// maxTraceSpans bounds the trace file: a sim-paper chunk alone records
// about 600k spans.
const maxTraceSpans = 100_000

// writeTrace writes spans as a JSON array to path.
func writeTrace(path string, spans []span) error {
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
	}
	type jsonSpan struct {
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Job     int64  `json:"job"`
	}
	out := make([]jsonSpan, len(spans))
	for i, s := range spans {
		out[i] = jsonSpan{spanLabels[s.name], s.start, s.end, s.parent, s.job}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- timing decorators at the interfaces that exist ---

// tracedSched times core.Scheduler's Next and Report.
type tracedSched struct {
	core.Scheduler
	rec *recorder
}

func (s tracedSched) Next() (core.Job, bool) {
	s.rec.begin(spanNext, -1)
	job, ok := s.Scheduler.Next()
	s.rec.end()
	return job, ok
}

func (s tracedSched) Report(res core.Result) {
	s.rec.begin(spanReport, jobID(res.TrialID, res.Rung))
	s.Scheduler.Report(res)
	s.rec.end()
}

// tracedBackend times backend.Backend's Launch and Await. It forwards
// the optional checkpoint surface Drive looks for, so journal snapshots
// keep their trial tables.
type tracedBackend struct {
	backend.Backend
	rec *recorder
}

func (b *tracedBackend) Launch(job core.Job) {
	b.rec.begin(spanLaunch, jobID(job.TrialID, job.Rung))
	b.Backend.Launch(job)
	b.rec.end()
}

func (b *tracedBackend) Await(ctx context.Context) ([]backend.Completion, error) {
	b.rec.begin(spanAwait, -1)
	batch, err := b.Backend.Await(ctx)
	b.rec.end()
	return batch, err
}

func (b *tracedBackend) EnableCheckpointSnapshots() {
	if cp, ok := b.Backend.(interface{ EnableCheckpointSnapshots() }); ok {
		cp.EnableCheckpointSnapshots()
	}
}

func (b *tracedBackend) SnapshotTrials(fn func(trial int, resource float64, state json.RawMessage)) {
	if tc, ok := b.Backend.(backend.TrialCheckpointer); ok {
		tc.SnapshotTrials(fn)
	}
}

func (b *tracedBackend) RestoreTrial(trial int, resource float64, state json.RawMessage) {
	if tc, ok := b.Backend.(backend.TrialCheckpointer); ok {
		tc.RestoreTrial(trial, resource, state)
	}
}

// tracedWriter times Write on the writer under a state.Journal and
// keeps a copy of the stream for the replays that follow the run.
type tracedWriter struct {
	w      io.Writer
	rec    *recorder
	stream []byte
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	w.rec.begin(spanWrite, -1)
	n, err := w.w.Write(p)
	w.rec.end()
	w.stream = append(w.stream, p...)
	return n, err
}
