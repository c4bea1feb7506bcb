package remote

// The server's observability-and-operations plane: GET /metrics exports
// the counter snapshot in Prometheus text format, GET /v1/events streams
// run-lifecycle events as NDJSON from a bounded ring, and the
// token-scoped POST /v1/admin/* endpoints let an operator (cmd/ashactl)
// pause, resume, or abort experiments, adjust the worker budget, and
// drain the fleet while the run is live.
//
// The server owns what it can decide alone — freezing queued jobs,
// draining workers, canceling pending work, its own counters — and
// forwards scheduler-side decisions (stop granting Next, per-experiment
// status) to an attached ControlPlane: the Tuner's core.Gate or the
// Manager's dispatch loop.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// ExpStatus is one experiment's live state as reported by the attached
// control plane.
type ExpStatus struct {
	// Experiment is the experiment's name ("" for single-experiment
	// runs).
	Experiment string `json:"experiment"`
	// State is one of core's gate states ("running", "paused",
	// "aborted") or the manager's terminal states ("done", "failed").
	State string `json:"state"`
	// Issued/Completed/Failed/Running count the experiment's jobs.
	Issued    int `json:"issued"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Running   int `json:"running"`
	// BestLoss is the incumbent's loss (valid when HasBest).
	BestLoss float64 `json:"bestLoss,omitempty"`
	HasBest  bool    `json:"hasBest,omitempty"`
	// RungCompleted counts successful completions per rung index — the
	// rung occupancy of the successive-halving ladder.
	RungCompleted []int `json:"rungCompleted,omitempty"`
}

// Status is the control plane's full answer to a status query.
type Status struct {
	Experiments []ExpStatus `json:"experiments"`
	// Workers is the current worker budget (concurrently running jobs).
	Workers int `json:"workers"`
	// TenantWeights are the fair-share quota weights by tenant namespace
	// (absent when the control plane is not tenant-aware or no quotas
	// are configured).
	TenantWeights map[string]int `json:"tenantWeights,omitempty"`
}

// ControlPlane is the scheduler-side surface the admin API drives.
// Tuner and Manager attach the same implementation, which runs each
// call on the engine goroutine between batches (backend.Engine.Do). All
// methods must be safe to call from HTTP handler goroutines; a status
// call sits on the /metrics scrape path, so a wedged engine must answer
// with an error rather than hang. An empty experiment name addresses
// every experiment (single-experiment runs only have the empty name).
type ControlPlane interface {
	Status() (Status, error)
	Pause(experiment string) error
	Resume(experiment string) error
	Abort(experiment string) error
	SetWorkers(n int) error
	// Adopt takes ownership of an experiment this control plane knows
	// about but is not running (a federated shard's dormant assignment),
	// recovering it from its journal and scheduling it from where the
	// previous owner left off. Control planes that cannot adopt return
	// an error; an experiment that is not dormant is one wrapping
	// ErrAlreadyActive.
	Adopt(experiment string) error
	// Drop is Adopt's inverse — the fencing half of failover: the
	// experiment goes dormant again, its journal is closed and late
	// results are discarded, so a shard that lost ownership (declared
	// dead while it was merely slow) stops competing with the survivor
	// that adopted it. "" drops every active experiment (self-fencing
	// after losing coordinator contact). Dropping an already-dormant or
	// finished experiment is a no-op, never an error — fencing must be
	// safe to repeat.
	Drop(experiment string) error
}

// SetControl attaches the scheduler-side control plane. Until one is
// attached, pause/drain act server-side only and status reports just
// the counters. The first one starts a federated shard's coordinator
// link — only a control plane can adopt what it is assigned — and then
// announces the server (Options.OnListen), the one place it is
// announced: a run attaches its control plane once it is whole.
func (s *Server) SetControl(cp ControlPlane) {
	s.mu.Lock()
	s.control = cp
	s.mu.Unlock()
	if cp == nil {
		return
	}
	s.attached.Do(func() {
		if s.shard != nil {
			go s.shard.run()
		}
		if s.opts.OnListen != nil {
			s.opts.OnListen(s.URL())
		}
	})
}

// adopt and drop are the one way in for the shard link and the admin
// API alike. drop stops the scheduler side first (no new submissions),
// lifts a stale pause — it must not outlive ownership into a later
// re-adoption — and cancels the queued jobs, returning how many.
func (s *Server) adopt(experiment string) error {
	cp := s.controlPlane()
	if cp == nil || experiment == "" {
		return errors.New("adopt needs an experiment name and an attached control plane")
	}
	return cp.Adopt(experiment)
}

func (s *Server) drop(experiment string) (int, error) {
	cp := s.controlPlane()
	if cp == nil {
		return 0, errors.New("no control plane attached")
	}
	if err := cp.Drop(experiment); err != nil {
		return 0, err
	}
	s.ResumeExperiment(experiment)
	return s.CancelPending(experiment), nil
}

func (s *Server) controlPlane() ControlPlane {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.control
}

// EventBus returns the server's event ring, or nil when Options.Events
// is off. The engine and manager publish their lifecycle events here.
func (s *Server) EventBus() *obs.Bus { return s.bus }

// CounterSnapshot is a point-in-time copy of the server's counters and
// its queue and lease gauges — the same numbers /metrics exports.
type CounterSnapshot struct {
	Submitted      int64 `json:"submitted"`
	Granted        int64 `json:"granted"`
	Expired        int64 `json:"expired"`
	Accepted       int64 `json:"accepted"`
	Rejected       int64 `json:"rejected"`
	Canceled       int64 `json:"canceled"`
	BatchedReports int64 `json:"batchedReports"`
	BinReports     int64 `json:"binReports"`
	GrantFrames    int64 `json:"grantFrames"`  // frames Granted's jobs traveled in
	ReportFrames   int64 `json:"reportFrames"` // frames BinReports' entries traveled in
	Sweeps         int64 `json:"sweeps"`
	Registered     int64 `json:"registered"`
	Pending        int64 `json:"pending"`
	Leased         int64 `json:"leased"`
	EventsDropped  int64 `json:"eventsDropped"`
}

// snapshot copies the server's counters, its queue and lease gauges,
// the drain flag and the lease cap in one hold of the server lock: what
// /metrics and admin status show of the server (see
// leaseTable.snapshot).
func (s *Server) snapshot() (c CounterSnapshot, draining bool, leaseCap int) {
	s.mu.Lock()
	c = s.tab.snapshot()
	draining, leaseCap = s.tab.draining, s.tab.maxLeases
	s.mu.Unlock()
	if s.bus != nil {
		c.EventsDropped = s.bus.Dropped()
	}
	return c, draining, leaseCap
}

// PauseExperiment withholds the named experiment's queued jobs from
// lease grants ("" withholds the whole queue).
func (s *Server) PauseExperiment(name string) {
	s.mu.Lock()
	s.tab.paused[name] = true
	s.mu.Unlock()
}

// ResumeExperiment lifts PauseExperiment.
func (s *Server) ResumeExperiment(name string) {
	s.mu.Lock()
	delete(s.tab.paused, name)
	s.tab.wakeAll()
	s.mu.Unlock()
}

// PausedExperiments lists the currently paused experiment names,
// sorted.
func (s *Server) PausedExperiments() []string {
	s.mu.Lock()
	names := make([]string, 0, len(s.tab.paused))
	for name := range s.tab.paused {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	return names
}

// SetDraining turns worker draining on or off. While draining, every
// lease poll is answered "the run is over": connected workers exit
// cleanly, queued jobs stay queued, and lifting the drain lets a fresh
// fleet pick the queue back up.
func (s *Server) SetDraining(v bool) {
	s.mu.Lock()
	s.tab.draining = v
	if !v {
		s.tab.wakeAll()
	}
	s.mu.Unlock()
}

// CancelPending settles the named experiment's queued (not yet leased)
// jobs as Failed, returning how many were canceled. "" cancels every
// queued job. In-flight leases are untouched: their workers report or
// expire as usual.
func (s *Server) CancelPending(experiment string) int {
	s.mu.Lock()
	canceled := s.tab.cancel(experiment)
	s.mu.Unlock()
	s.fail(canceled)
	return len(canceled)
}

// SetMaxLeases adjusts the concurrent-lease cap at runtime (0 =
// unlimited) — the server half of the admin worker-budget command.
func (s *Server) SetMaxLeases(n int) {
	s.mu.Lock()
	s.tab.maxLeases = n
	s.tab.wakeAll()
	s.mu.Unlock()
}

// --- /metrics ---

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		reject(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var b strings.Builder
	c, draining, leaseCap := s.snapshot()
	counter := func(name, help string, v int64) {
		obs.PromHeader(&b, name, "counter", help)
		obs.PromSample(&b, name, nil, float64(v))
	}
	gauge := func(name, help string, v float64) {
		obs.PromHeader(&b, name, "gauge", help)
		obs.PromSample(&b, name, nil, v)
	}
	counter("asha_jobs_submitted_total", "Jobs submitted to the lease queue.", c.Submitted)
	counter("asha_leases_granted_total", "Job leases granted to workers.", c.Granted)
	counter("asha_leases_expired_total", "Leases expired by the heartbeat sweeper (jobs requeued).", c.Expired)
	counter("asha_reports_accepted_total", "Report entries accepted (jobs settled by a worker).", c.Accepted)
	counter("asha_reports_rejected_total", "Report entries rejected (late, mispaired, or foreign leases).", c.Rejected)
	counter("asha_jobs_canceled_total", "Queued jobs canceled by an admin abort.", c.Canceled)
	counter("asha_report_batch_entries_total", "Entries settled through reports frames POSTed to /v1/report.", c.BatchedReports)
	counter("asha_bin_report_entries_total", "Entries settled through binary stream frames.", c.BinReports)
	counter("asha_lease_grant_frames_total", "Binary grants frames that carried jobs (jobs per frame: asha_leases_granted_total over this).", c.GrantFrames)
	counter("asha_lease_report_frames_total", "Binary reports frames settled (entries per frame: asha_bin_report_entries_total over this).", c.ReportFrames)
	counter("asha_expiry_sweeps_total", "Lease-expiry sweep passes completed.", c.Sweeps)
	counter("asha_workers_registered_total", "Workers registered over the server lifetime.", c.Registered)
	gauge("asha_jobs_pending", "Jobs queued and waiting for a lease.", float64(c.Pending))
	gauge("asha_leases_active", "Leases currently held by workers.", float64(c.Leased))
	if s.bus != nil {
		counter("asha_events_dropped_total", "Events skipped past slow /v1/events consumers.", c.EventsDropped)
		gauge("asha_event_subscribers", "Event-stream subscriptions handed out over the server lifetime.", float64(s.bus.Subscribers()))
	}
	gauge("asha_server_draining", "1 while lease polls are answered with done (drain mode).", boolGauge(draining))
	gauge("asha_lease_cap", "Concurrent-lease cap (0 = unlimited).", float64(leaseCap))
	if s.opts.ShardID != "" {
		obs.PromHeader(&b, "asha_shard_info", "gauge", "Constant 1, labeled with this tuner shard's ID.")
		obs.PromSample(&b, "asha_shard_info", []obs.Label{{Name: "shard", Value: s.opts.ShardID}}, 1)
	}

	if lat := s.lat; lat != nil {
		hist := func(name, help string, h *obs.Histogram) {
			obs.PromHeader(&b, name, "histogram", help)
			h.WriteProm(&b, name, nil)
		}
		hist("asha_queue_wait_seconds",
			"Time jobs wait in the queue between submit and lease grant.", &lat.queueWait)
		hist("asha_exec_seconds",
			"Worker-measured objective execution time per settled job.", &lat.execTime)
		hist("asha_report_settle_seconds",
			"Report-to-settle residual: server grant-to-settle elapsed minus worker-reported dwell+exec+buffer.", &lat.settleTime)
		hist("asha_heartbeat_rtt_seconds",
			"Worker-measured heartbeat round-trip time.", &lat.hbRTT)
		// Per-experiment exec time: snapshot the stable histogram
		// pointers under the lock, write the (lock-free) exposition
		// outside it.
		lat.mu.Lock()
		names := append([]string(nil), lat.expNames...)
		hists := make([]*obs.Histogram, len(names))
		for i, name := range names {
			hists[i] = &lat.exps[name].exec
		}
		lat.mu.Unlock()
		if len(names) > 0 {
			obs.PromHeader(&b, "asha_experiment_exec_seconds", "histogram",
				"Worker-measured objective execution time per experiment.")
			for i, name := range names {
				hists[i].WriteProm(&b, "asha_experiment_exec_seconds",
					[]obs.Label{{Name: "experiment", Value: name}})
			}
		}
	}

	if cp := s.controlPlane(); cp != nil {
		if st, err := cp.Status(); err == nil {
			s.writeExperimentMetrics(&b, st)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

func boolGauge(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// writeExperimentMetrics renders the control plane's per-experiment
// status: the engine's incremental stats (issued/completed/failed,
// incumbent loss) and the rung occupancy of the halving ladder.
func (s *Server) writeExperimentMetrics(b *strings.Builder, st Status) {
	obs.PromHeader(b, "asha_worker_budget", "gauge", "Shared worker budget (concurrently running jobs).")
	obs.PromSample(b, "asha_worker_budget", nil, float64(st.Workers))
	family := func(name, typ, help string, value func(e ExpStatus) (float64, bool)) {
		obs.PromHeader(b, name, typ, help)
		for _, e := range st.Experiments {
			if v, ok := value(e); ok {
				obs.PromSample(b, name, []obs.Label{{Name: "experiment", Value: e.Experiment}}, v)
			}
		}
	}
	all := func(f func(e ExpStatus) float64) func(ExpStatus) (float64, bool) {
		return func(e ExpStatus) (float64, bool) { return f(e), true }
	}
	family("asha_experiment_issued_total", "counter", "Training jobs issued per experiment.",
		all(func(e ExpStatus) float64 { return float64(e.Issued) }))
	family("asha_experiment_completed_total", "counter", "Training jobs completed per experiment.",
		all(func(e ExpStatus) float64 { return float64(e.Completed) }))
	family("asha_experiment_failed_total", "counter", "Training jobs failed (and retried) per experiment.",
		all(func(e ExpStatus) float64 { return float64(e.Failed) }))
	family("asha_experiment_running", "gauge", "Training jobs currently in flight per experiment.",
		all(func(e ExpStatus) float64 { return float64(e.Running) }))
	family("asha_experiment_paused", "gauge", "1 while the experiment is paused.",
		all(func(e ExpStatus) float64 { return boolGauge(e.State == "paused") }))
	family("asha_experiment_best_loss", "gauge", "Incumbent validation loss per experiment.",
		func(e ExpStatus) (float64, bool) { return e.BestLoss, e.HasBest })
	obs.PromHeader(b, "asha_experiment_rung_completed_total", "counter",
		"Successful completions per successive-halving rung.")
	for _, e := range st.Experiments {
		for rung, n := range e.RungCompleted {
			obs.PromSample(b, "asha_experiment_rung_completed_total", []obs.Label{
				{Name: "experiment", Value: e.Experiment},
				{Name: "rung", Value: strconv.Itoa(rung)},
			}, float64(n))
		}
	}
	s.writeTenantMetrics(b, st)
}

// tenantAgg is one tenant's rollup across its experiments.
type tenantAgg struct {
	issued, completed, failed, running int
}

// writeTenantMetrics renders the per-tenant rollup of the control
// plane's experiment status plus the configured quota weights — the
// numbers the fair-share dispatch loop balances. Skipped entirely for
// single-tenant deployments (no quotas, no namespaced experiments).
func (s *Server) writeTenantMetrics(b *strings.Builder, st Status) {
	aggs := make(map[string]*tenantAgg)
	for _, e := range st.Experiments {
		t := TenantOf(e.Experiment)
		if t == "" && len(st.TenantWeights) == 0 {
			continue
		}
		a := aggs[t]
		if a == nil {
			a = &tenantAgg{}
			aggs[t] = a
		}
		a.issued += e.Issued
		a.completed += e.Completed
		a.failed += e.Failed
		a.running += e.Running
	}
	if len(aggs) == 0 && len(st.TenantWeights) == 0 {
		return
	}
	tenants := make([]string, 0, len(aggs))
	for t := range aggs {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	family := func(name, typ, help string, value func(a *tenantAgg) float64) {
		obs.PromHeader(b, name, typ, help)
		for _, t := range tenants {
			obs.PromSample(b, name, []obs.Label{{Name: "tenant", Value: t}}, value(aggs[t]))
		}
	}
	family("asha_tenant_issued_total", "counter", "Training jobs issued per tenant.",
		func(a *tenantAgg) float64 { return float64(a.issued) })
	family("asha_tenant_completed_total", "counter", "Training jobs completed per tenant.",
		func(a *tenantAgg) float64 { return float64(a.completed) })
	family("asha_tenant_failed_total", "counter", "Training jobs failed (and retried) per tenant.",
		func(a *tenantAgg) float64 { return float64(a.failed) })
	family("asha_tenant_running", "gauge", "Training jobs currently in flight per tenant.",
		func(a *tenantAgg) float64 { return float64(a.running) })
	if len(st.TenantWeights) > 0 {
		weights := make([]string, 0, len(st.TenantWeights))
		for t := range st.TenantWeights {
			weights = append(weights, t)
		}
		sort.Strings(weights)
		obs.PromHeader(b, "asha_tenant_quota_weight", "gauge", "Fair-share quota weight per tenant.")
		for _, t := range weights {
			obs.PromSample(b, "asha_tenant_quota_weight", []obs.Label{{Name: "tenant", Value: t}}, float64(st.TenantWeights[t]))
		}
	}
}

// --- /v1/events ---

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var keep func(obs.Event) bool
	if q := r.URL.Query(); q.Has("experiment") {
		experiment := q.Get("experiment")
		keep = func(e obs.Event) bool { return e.Experiment == experiment }
	}
	streamEvents(w, r, s.bus, keep)
}

// streamEvents serves bus as NDJSON, one event per line, until the bus
// closes or the client goes. A nil bus is an event stream that was not
// enabled; a non-nil keep selects the events sent.
func streamEvents(w http.ResponseWriter, r *http.Request, bus *obs.Bus, keep func(obs.Event) bool) {
	if r.Method != http.MethodGet {
		reject(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if bus == nil {
		reject(w, http.StatusNotFound, "event stream disabled")
		return
	}
	flusher, _ := w.(http.Flusher)
	// Subscribe before committing the headers: a client that has seen
	// the stream open is guaranteed every event published from then on,
	// so consumers (and tests) need no attach-race grace period.
	sub := bus.Subscribe()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush() // commit headers so clients see the stream open
	}
	enc := json.NewEncoder(w)
	for {
		events, dropped, ok := sub.Next(r.Context())
		if !ok {
			return // bus closed (run over) or client gone
		}
		if dropped > 0 {
			// The gap is announced, never silent: a consumer tailing the
			// stream knows exactly how many events it missed.
			if err := enc.Encode(obs.Event{Type: obs.EventDropped, Count: dropped}); err != nil {
				return
			}
		}
		for _, e := range events {
			if keep != nil && !keep(e) {
				continue
			}
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// --- /v1/admin ---

// adminReq is the body of every admin POST; commands read the fields
// they need and ignore the rest.
type adminReq struct {
	// Experiment addresses one experiment; "" addresses all of them.
	Experiment string `json:"experiment,omitempty"`
	// Workers is the new shared worker budget (workers command).
	Workers int `json:"workers,omitempty"`
	// Drain turns drain mode on or off (drain command; absent = on).
	Drain *bool `json:"drain,omitempty"`
}

// adminResp answers the mutating admin commands.
type adminResp struct {
	OK bool `json:"ok"`
	// Canceled reports how many queued jobs an abort threw away.
	Canceled int `json:"canceled,omitempty"`
}

// AdminStatus answers /v1/admin/status: the server-side view plus the
// control plane's per-experiment status when one is attached.
type AdminStatus struct {
	OK bool `json:"ok"`
	// ShardID names this tuner shard in a federated deployment (absent
	// on single-node runs).
	ShardID  string          `json:"shard,omitempty"`
	Draining bool            `json:"draining"`
	LeaseCap int             `json:"leaseCap"`
	Paused   []string        `json:"paused,omitempty"`
	Counters CounterSnapshot `json:"counters"`
	// Workers and Experiments come from the control plane (absent
	// without one).
	Workers     int         `json:"workers,omitempty"`
	Experiments []ExpStatus `json:"experiments,omitempty"`
	// TenantWeights are the control plane's fair-share quota weights by
	// tenant (absent without quotas; filtered out for tenant admins).
	TenantWeights map[string]int `json:"tenantWeights,omitempty"`
	// ControlError reports a control plane that could not answer (e.g.
	// the run already ended); the server-side fields are still valid.
	ControlError string `json:"controlError,omitempty"`
}

// adminAuth enforces the admin token and classifies its scope: the
// fleet AdminToken gets scoped=false (full access), a tenant admin
// token gets that tenant's scope. The check runs before any body
// parsing, so malformed bodies can never bypass token scoping.
func (s *Server) adminAuth(w http.ResponseWriter, r *http.Request) (tenant string, scoped, ok bool) {
	if token, found := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); found {
		if tokenIs(token, s.opts.AdminToken) {
			return "", false, true
		}
		for t, tok := range s.opts.TenantAdminTokens {
			if tokenIs(token, tok) {
				return t, true, true
			}
		}
	}
	reject(w, http.StatusUnauthorized, "bad or missing admin token")
	return "", false, false
}

// mountPprof registers the net/http/pprof handlers under /debug/pprof/
// on the server's own mux (never http.DefaultServeMux), each gated by
// adminAuth, so profiling a live tuner needs the operator credential
// but no restart. Called from NewServer when an admin token is set.
func (s *Server) mountPprof(mux *http.ServeMux) {
	gate := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			_, scoped, ok := s.adminAuth(w, r)
			if !ok {
				return
			}
			if scoped {
				// Profiles expose the whole process; tenant admins stay
				// scoped to their experiments.
				reject(w, http.StatusForbidden, "pprof requires the fleet admin token")
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("/debug/pprof/", gate(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", gate(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", gate(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", gate(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", gate(pprof.Trace))
}

// decodeAdmin parses an admin request body (empty bodies mean the zero
// request, so `ashactl drain` needs no payload). It writes the error
// response itself and returns false on rejection.
func (s *Server) decodeAdmin(w http.ResponseWriter, r *http.Request, req *adminReq) bool {
	if r.Method != http.MethodPost {
		reject(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		reject(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	if len(strings.TrimSpace(string(body))) == 0 {
		return true
	}
	if err := json.Unmarshal(body, req); err != nil {
		reject(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

func (s *Server) handleAdmin(w http.ResponseWriter, r *http.Request) {
	tenant, scoped, ok := s.adminAuth(w, r)
	if !ok {
		return
	}
	cp := s.controlPlane()
	cmd := strings.TrimPrefix(r.URL.Path, "/v1/admin/")
	if cmd == "status" {
		// Status is read-only and convenient from a browser or curl, so
		// GET is allowed alongside POST.
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			reject(w, http.StatusMethodNotAllowed, "GET or POST")
			return
		}
		st := AdminStatus{OK: true, ShardID: s.opts.ShardID, Paused: s.PausedExperiments()}
		st.Counters, st.Draining, st.LeaseCap = s.snapshot()
		if cp != nil {
			if cs, err := cp.Status(); err == nil {
				st.Workers = cs.Workers
				st.Experiments = cs.Experiments
				st.TenantWeights = cs.TenantWeights
			} else {
				st.ControlError = err.Error()
			}
		}
		if scoped {
			// A tenant admin sees its own slice: other tenants'
			// experiments, pauses and quota weights are filtered out.
			kept := st.Experiments[:0]
			for _, e := range st.Experiments {
				if TenantOf(e.Experiment) == tenant {
					kept = append(kept, e)
				}
			}
			st.Experiments = kept
			paused := st.Paused[:0]
			for _, p := range st.Paused {
				if p != "" && TenantOf(p) == tenant {
					paused = append(paused, p)
				}
			}
			st.Paused = paused
			st.TenantWeights = nil
		}
		reply(w, st)
		return
	}
	var req adminReq
	if !s.decodeAdmin(w, r, &req) {
		return
	}
	if scoped {
		switch cmd {
		case "pause", "resume", "abort":
			// Tenant admins must name one of their own experiments: the
			// fleet-wide "" target would reach across tenants.
			if req.Experiment == "" || TenantOf(req.Experiment) != tenant {
				reject(w, http.StatusForbidden,
					fmt.Sprintf("%s requires an experiment in tenant %q", cmd, tenant))
				return
			}
		default:
			reject(w, http.StatusForbidden,
				fmt.Sprintf("%s requires the fleet admin token", cmd))
			return
		}
	}
	switch cmd {
	case "pause", "resume", "abort", "workers", "adopt", "drop":
		if cp == nil {
			// These act on the run: acknowledging one before the run has
			// attached its control plane — while it opens or replays its
			// journals — would lose it.
			reject(w, http.StatusServiceUnavailable, fmt.Sprintf("%s: the run is not attached yet", cmd))
			return
		}
	}
	// Each command answers 400 with the refusal it met, or ok.
	var err error
	canceled := 0
	switch cmd {
	case "pause":
		// Server first: queued jobs freeze immediately, then the
		// scheduler side stops granting. On a control-plane refusal
		// (unknown experiment) the server-side pause is rolled back.
		s.PauseExperiment(req.Experiment)
		if err = cp.Pause(req.Experiment); err != nil {
			s.ResumeExperiment(req.Experiment)
		}
	case "resume":
		if err = cp.Resume(req.Experiment); err == nil {
			s.ResumeExperiment(req.Experiment)
		}
	case "abort":
		// Scheduler side first; then flush the queue so in-flight
		// accounting drains without waiting for workers to train jobs
		// nobody wants. A stale pause must not outlive the experiment.
		if err = cp.Abort(req.Experiment); err == nil {
			s.ResumeExperiment(req.Experiment)
			canceled = s.CancelPending(req.Experiment)
		}
	case "workers":
		if req.Workers < 1 {
			err = errors.New("workers must be >= 1")
		} else if err = cp.SetWorkers(req.Workers); err == nil {
			s.SetMaxLeases(req.Workers)
		}
	case "drain":
		s.SetDraining(req.Drain == nil || *req.Drain)
	case "adopt":
		// An operator takes an experiment over by hand, from its journal.
		err = s.adopt(req.Experiment)
	case "drop":
		canceled, err = s.drop(req.Experiment)
	default:
		reject(w, http.StatusNotFound, fmt.Sprintf("unknown admin command %q", cmd))
		return
	}
	if err != nil {
		reject(w, http.StatusBadRequest, err.Error())
		return
	}
	reply(w, adminResp{OK: true, Canceled: canceled})
}
