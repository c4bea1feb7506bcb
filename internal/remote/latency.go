package remote

// Per-job latency tracing (PR 8). Every settled job leaves a span
// timeline — submitted→granted (queue wait), granted→dequeue (wire +
// prefetch dwell), exec start→end, report-buffer dwell, report→settle
// residual — assembled from two clocks that are never mixed: the
// server stamps submit/grant/settle on its own monotonic clock, and
// the worker ships its three stage durations as monotonic deltas in
// every reports frame entry (JobTiming). Cross-machine wall-clock
// differencing never enters a histogram, so clock skew between fleet
// hosts cannot fabricate latencies; as defense in depth every
// worker-reported stage is also clamped to [0, maxStageDur] at settle.
//
// The tracker feeds four server-wide histogram families plus a
// per-experiment and per-(experiment, rung) exec-time breakdown; the
// per-rung distributions drive straggler detection (exec time beyond
// StragglerK × the rung's rolling p95 publishes an EventStraggler).
// A bounded ring of recent spans serves GET /v1/trace. Everything on
// the settle path is either lock-free (obs.Histogram) or a short
// critical section on lat.mu with zero steady-state allocation, keeping
// the "observability is free" property leasePathMetricsAllocSlack pins.

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	// maxStageDur caps each worker-reported stage duration at settle: a
	// stage longer than a day is a corrupt or hostile value, not a
	// measurement (leases expire long before).
	maxStageDur = 24 * time.Hour
	// stragglerMinSamples is the minimum number of settled jobs a rung
	// must have before its p95 is trusted for straggler detection.
	stragglerMinSamples = 20
	// defaultStragglerK is Options.StragglerK when unset.
	defaultStragglerK = 3.0
	// spanRingCap bounds the /v1/trace span ring.
	spanRingCap = 2048
	// maxRungBuckets bounds the per-rung histogram list per experiment.
	maxRungBuckets = 64
)

// JobSpan is one settled job's span timeline as GET /v1/trace reports
// it. Stage durations are microseconds; DwellUs/ExecUs/BufUs are the
// worker's monotonic measurements, which every report entry carries.
type JobSpan struct {
	Experiment   string `json:"experiment,omitempty"`
	Trial        int    `json:"trial"`
	Rung         int    `json:"rung"`
	Lease        uint64 `json:"lease"`
	Worker       string `json:"worker"`
	GrantUnixMs  int64  `json:"grantMs"`
	SettleUnixMs int64  `json:"settleMs"`
	QueueUs      int64  `json:"queueUs"`
	DwellUs      int64  `json:"dwellUs,omitempty"`
	ExecUs       int64  `json:"execUs"`
	BufUs        int64  `json:"bufUs,omitempty"`
	// SettleUs is the report→settle residual: grant→settle elapsed on
	// the server minus the worker's dwell+exec+buf (wire transit both
	// ways plus server queueing), clamped to ≥ 0.
	SettleUs  int64 `json:"settleUs,omitempty"`
	Straggler bool  `json:"straggler,omitempty"`
	Err       bool  `json:"err,omitempty"`
}

// expLatency is one experiment's exec-time breakdown: the experiment-
// wide histogram exported per-experiment on /metrics, and the per-rung
// histograms backing straggler detection.
type expLatency struct {
	exec  obs.Histogram
	rungs []*obs.Histogram
}

// latencyTracker owns every latency-tracing data structure hanging off
// a Server. The four top-level histograms are written lock-free from
// the settle/grant/heartbeat paths; the map and span ring sit behind mu
// with short, allocation-free steady-state critical sections.
type latencyTracker struct {
	queueWait  obs.Histogram // submitted → granted
	execTime   obs.Histogram // worker exec (or grant→settle fallback)
	settleTime obs.Histogram // grant→settle minus worker stages
	hbRTT      obs.Histogram // worker-measured heartbeat round trip

	mu       sync.Mutex
	exps     map[string]*expLatency
	expNames []string // insertion-ordered keys for a stable /metrics

	spans     [spanRingCap]JobSpan
	spanNext  int   // next ring slot to overwrite
	spanCount int64 // total spans recorded
}

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{exps: make(map[string]*expLatency)}
}

// clampStage converts one worker-reported stage (microseconds) to a
// duration in [0, maxStageDur]. The wire carries unsigned counts, but a
// decoded value may still be nonsense (hostile frame, worker bug); the
// clamp guarantees no negative and no absurd duration ever reaches a
// histogram, whatever the fleet's clocks do.
func clampStage(us int64) time.Duration {
	if us <= 0 {
		return 0
	}
	d := time.Duration(us) * time.Microsecond
	if d > maxStageDur || d < 0 { // < 0: the multiply overflowed
		return maxStageDur
	}
	return d
}

// expLocked returns the experiment's latency bucket, creating it on
// first settle. Callers hold lat.mu.
func (lat *latencyTracker) expLocked(name string) *expLatency {
	el, ok := lat.exps[name]
	if !ok {
		el = &expLatency{}
		lat.exps[name] = el
		lat.expNames = append(lat.expNames, name)
	}
	return el
}

// rungLocked returns the experiment's histogram for the rung, creating
// intermediate rungs on demand. Callers hold lat.mu.
func (el *expLatency) rungLocked(rung int) *obs.Histogram {
	if rung < 0 {
		rung = 0
	}
	if rung >= maxRungBuckets {
		rung = maxRungBuckets - 1
	}
	for len(el.rungs) <= rung {
		el.rungs = append(el.rungs, &obs.Histogram{})
	}
	return el.rungs[rung]
}

// observeSettle records one accepted settle into the latency plane:
// settleReports calls it exactly once per accepted entry, whichever
// path carried the frame, which is what keeps
// sum(asha_exec_seconds_count) == accepted at quiescence. tm is the
// worker's stage timing; out is the outcome about to be delivered.
// No-op unless Options.Metrics.
func (s *Server) observeSettle(t *task, tm JobTiming, out *Outcome) {
	lat := s.lat
	if lat == nil {
		return
	}
	now := time.Now()
	total := now.Sub(t.grantedAt)
	if total < 0 {
		total = 0
	}
	queue := t.grantedAt.Sub(t.submitted)
	if queue < 0 {
		queue = 0
	}
	dwell := clampStage(tm.DwellUs)
	execD := clampStage(tm.ExecUs)
	buf := clampStage(tm.BufUs)
	residual := total - (dwell + execD + buf)
	if residual < 0 {
		// The worker's stages can only exceed the server-side elapsed
		// through clock trouble; report no residual rather than a
		// negative one.
		residual = 0
	}
	lat.settleTime.Observe(residual)
	lat.execTime.Observe(execD)

	rung := t.payload.Rung
	lat.mu.Lock()
	el := lat.expLocked(t.payload.Experiment)
	rh := el.rungLocked(rung)
	lat.mu.Unlock()
	// The rung's p95 is read before this job joins the distribution, so
	// one huge outlier cannot dilute the very threshold that should
	// flag it.
	straggler := false
	if rh.Count() >= stragglerMinSamples {
		if p95 := rh.Quantile(0.95); p95 > 0 && float64(execD) > s.opts.StragglerK*float64(p95) {
			straggler = true
		}
	}
	el.exec.Observe(execD)
	rh.Observe(execD)

	span := JobSpan{
		Experiment:   t.payload.Experiment,
		Trial:        t.payload.Trial,
		Rung:         rung,
		Lease:        t.leaseID,
		Worker:       t.worker,
		GrantUnixMs:  t.grantedAt.UnixMilli(),
		SettleUnixMs: now.UnixMilli(),
		QueueUs:      int64(queue / time.Microsecond),
		DwellUs:      int64(dwell / time.Microsecond),
		ExecUs:       int64(execD / time.Microsecond),
		BufUs:        int64(buf / time.Microsecond),
		SettleUs:     int64(residual / time.Microsecond),
		Straggler:    straggler,
		Err:          out.Err != "",
	}
	lat.mu.Lock()
	lat.spans[lat.spanNext] = span
	lat.spanNext = (lat.spanNext + 1) % spanRingCap
	lat.spanCount++
	lat.mu.Unlock()

	if straggler && s.bus != nil {
		s.bus.Publish(obs.Event{
			Type:       obs.EventStraggler,
			Experiment: t.payload.Experiment,
			Trial:      t.payload.Trial,
			Rung:       rung,
			DurMs:      int64(execD / time.Millisecond),
		})
	}
}

// observeHeartbeatRTT records one worker-measured heartbeat round trip
// (microseconds; 0 means the worker has none yet). A heartbeat frame
// funnels here whether it came on the stream or to /v1/heartbeat.
func (s *Server) observeHeartbeatRTT(rttUs int64) {
	if s.lat == nil || rttUs <= 0 {
		return
	}
	s.lat.hbRTT.Observe(clampStage(rttUs))
}

// traceResp is GET /v1/trace's reply.
type traceResp struct {
	// Total is the number of spans recorded over the server's lifetime
	// (the ring keeps the most recent spanRingCap of them).
	Total int64     `json:"total"`
	Spans []JobSpan `json:"spans"`
}

// handleTrace serves GET /v1/trace: the most recent settled-job spans,
// newest first. Query parameters: trial (restrict to one trial ID),
// experiment (restrict to one experiment), n (max spans, default 100).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		reject(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	lat := s.lat
	q := r.URL.Query()
	trial := -1
	if v := q.Get("trial"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			reject(w, http.StatusBadRequest, "bad trial: "+v)
			return
		}
		trial = n
	}
	experiment, expSet := "", false
	if vs, ok := q["experiment"]; ok && len(vs) > 0 {
		experiment, expSet = vs[0], true
	}
	limit := 100
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			reject(w, http.StatusBadRequest, "bad n: "+v)
			return
		}
		limit = n
	}
	if limit > spanRingCap {
		limit = spanRingCap
	}
	resp := traceResp{Spans: []JobSpan{}}
	lat.mu.Lock()
	resp.Total = lat.spanCount
	stored := int(lat.spanCount)
	if stored > spanRingCap {
		stored = spanRingCap
	}
	for i := 1; i <= stored && len(resp.Spans) < limit; i++ {
		sp := lat.spans[(lat.spanNext-i+spanRingCap)%spanRingCap]
		if trial >= 0 && sp.Trial != trial {
			continue
		}
		if expSet && sp.Experiment != experiment {
			continue
		}
		resp.Spans = append(resp.Spans, sp)
	}
	lat.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
