// Package remote implements the distributed execution subsystem: an
// HTTP job-lease server embedded in the tuning process (Server), a
// worker agent that connects to it over the network (ServeAgent, in
// agent.go), and a backend.Backend adapter driving the shared engine
// over a fleet (Backend, in backend.go).
//
// The control protocol is JSON POST endpoints, every request stamped
// with ProtocolVersion and refused by name on a mismatch:
//
//	/v1/register  — a worker announces itself and learns its lease TTL
//	              	and the fleet's batching defaults
//	/v1/stream    — upgrade to the binary streaming wire, the path every
//	              	agent leases over: one long-lived connection per
//	              	worker multiplexing lease grants, report batches and
//	              	heartbeats as dense length-prefixed frames
//	              	(binwire.go, stream.go)
//	/v1/report    — one reports frame, exactly as the stream would
//	              	carry it, in the envelope {v, token, worker, frame},
//	              	answered {v, frame} with the stream's report ack:
//	              	the agent's fallback when its stream is down
//	/v1/heartbeat — one heartbeat frame in the same envelope, answered
//	              	with the heartbeat ack; the same fallback
//
// Workers are elastic: they may register at any time — including long
// after the run started — and immediately lease queued jobs. Failure
// handling is lease-based: a worker that crashes, hangs, or drops off
// the network stops heartbeating, its lease expires, and the sweeper
// reports the job as Failed so the scheduler requeues it through the
// same retry path used for subprocess crashes. A report arriving after
// its lease expired is rejected (its ack bit clear), so a requeued job
// can never be double-counted.
package remote

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ProtocolVersion is the one version of the worker protocol: the JSON
// envelopes, the frames they and /v1/stream carry, and the job codec
// inside those frames (exec.BinRequest and exec.BinResponse, which the
// stream never versions on their own). Server and workers are built
// from one commit, so any other number is refused by name at
// /v1/register (see check).
const ProtocolVersion = 2

// JobPayload is one training job submitted to the fleet. The
// hyperparameter assignment is the dense vector the binary wire ships:
// Vec[i] is parameter Names[i]'s value.
type JobPayload struct {
	// Experiment routes the job to the right objective on workers
	// serving several (empty for single-experiment runs).
	Experiment string
	// Trial identifies the configuration's stateful training run.
	Trial int
	// Rung is the scheduler rung the job trains toward — informational,
	// used to bucket exec-time quantiles per rung for straggler
	// detection (a rung-3 job legitimately runs ~η× longer than a
	// rung-0 one, so straggler thresholds must not mix rungs).
	Rung int
	// Names and Vec are the assignment. Names is typically the
	// experiment's shared searchspace table (one slice for the whole run
	// — the binary wire uses slice identity to send it once per
	// connection). Both are read by server goroutines until the job
	// settles and must not be mutated by the submitter in the meantime.
	Names []string
	Vec   []float64
	// From and To are cumulative resources: resume at From, train to To.
	From, To float64
	// State is the trial's last committed checkpoint (nil on the first
	// job).
	State json.RawMessage
}

// Outcome is the single, exactly-once answer to one submitted job.
type Outcome struct {
	// Loss and State report a successful job.
	Loss  float64
	State json.RawMessage
	// Failed marks a lost job — the lease expired or the server shut
	// down before a worker answered. The job made no progress and may
	// be retried.
	Failed bool
	// Err is a fatal objective error reported by a worker; it aborts
	// the run.
	Err string
}

// DefaultFlushInterval is the report-flush deadline advertised to
// workers when Options.FlushInterval is zero: the longest a completed
// result may wait in a worker's report buffer for batch-mates.
const DefaultFlushInterval = 25 * time.Millisecond

// Options configures a Server. Its fields are asha.Remote's, in the
// same order, so that the public struct converts to it whole.
type Options struct {
	// Listen is the TCP address to serve on (default "127.0.0.1:0").
	Listen string
	// Token, when non-empty, is a shared secret every worker request
	// must present. It grants unscoped access: workers holding it may
	// lease jobs of any tenant.
	Token string
	// LeaseTTL is how long a granted lease stays valid without a
	// heartbeat (default 15s; under 30ms is refused, see timingFor).
	LeaseTTL time.Duration
	// MaxLeases caps the number of concurrently leased jobs
	// (0 = unlimited; callers usually bound in-flight work themselves).
	MaxLeases int
	// BatchSize caps the jobs one grants or reports frame carries and is
	// advertised to workers at registration as the fleet-wide batch: a
	// worker holds finished results up to FlushInterval for that
	// many. Unset (0), nothing waits and nothing is capped: a poll is
	// granted what the worker has room for (within MaxLeases), a report
	// frame carries the results that are ready. Workers may ask for less;
	// they never receive more.
	BatchSize int
	// Prefetch is advertised to workers at registration as the depth of
	// their local job queue: jobs leased ahead of the ones
	// their slots are training, overlapping execution with the next
	// lease poll (default 0: no lookahead).
	Prefetch int
	// FlushInterval is advertised to workers at registration as the
	// report-flush deadline (default DefaultFlushInterval; under 1ms: refused).
	FlushInterval time.Duration
	// OnListen, if set, is called once with the server's base URL: by
	// the first SetControl, the one place the server is announced.
	OnListen func(url string)
	// Metrics enables GET /metrics: the server's counters — and, when a
	// ControlPlane is attached, per-experiment scheduler state — in
	// Prometheus text format. Counters and gauges are plain fields read
	// in the scrape's one hold of the server's lock; a second hold finds
	// the ControlPlane.
	Metrics bool
	// Events enables GET /v1/events: an NDJSON stream of run-lifecycle
	// events from a bounded ring buffer (see EventBuffer); slow
	// consumers are skipped forward with an explicit "dropped" record
	// rather than blocking publishers.
	Events bool
	// EventBuffer is the event ring capacity (default
	// obs.DefaultBusCapacity; ignored without Events).
	EventBuffer int
	// AdminToken, when non-empty, enables the token-scoped /v1/admin
	// API (pause/resume/abort, worker budget, drain) used by
	// cmd/ashactl — and, with it, the net/http/pprof handlers under
	// /debug/pprof/, gated behind the same bearer token. It is
	// deliberately a separate secret from the worker Token: operators
	// and workers hold different credentials.
	AdminToken string
	// StragglerK is the straggler threshold multiplier: a settled job
	// whose exec time exceeds StragglerK × the p95 of its rung's
	// rolling exec-time distribution emits an EventStraggler on the
	// event bus (default 3; requires Metrics for the distributions and
	// Events for the bus).
	StragglerK float64
	// ShardID, when non-empty, names this server's tuner shard in a
	// federated deployment: it is exported on /metrics as
	// asha_shard_info{shard="..."} and reported in admin status.
	ShardID string
	// Coordinator, when non-empty, makes this server federated shard
	// ShardID: once a control plane is attached it beats to the
	// coordinator at this host:port (":port" is loopback) and adopts and
	// drops experiments through the control plane as each reply restates
	// its assignment, self-fencing when the link is lost (shard.go). It
	// presents AdminToken to the coordinator.
	Coordinator string
	// TenantTokens maps tenant namespace -> worker token for multi-tenant
	// fleets. A worker registering with a tenant's token is scoped to
	// that tenant: it only ever receives jobs of experiments named
	// "<tenant>/..." (see TenantOf), and its credential cannot drive
	// another tenant's workers. Tenant names must be non-empty. When any
	// tenant tokens are configured the server always authenticates, even
	// if Token is empty.
	TenantTokens map[string]string
	// TenantAdminTokens maps tenant namespace -> admin token. A tenant
	// admin token opens the /v1/admin API scoped to that tenant's
	// experiments only (pause/resume/abort/status); fleet-wide commands
	// (workers, drain, adopt) still require AdminToken.
	TenantAdminTokens map[string]string
}

// task is one submitted job — the job's one record on the server:
// queued, then leased, then answered exactly once — by a worker's
// report, by lease expiry, by cancellation or by server shutdown. A
// *task is read only under s.mu, except by its owner: the one path that
// took it out of the lease table (settleReports, sweepOnce,
// CancelPending or Close), which calls finish. The granter copies what
// it encodes while it still holds s.mu. Once finish returns, the owner
// puts the task back on the table's free list, which submit takes from
// before it cuts the table's slab (Close keeps nothing): at steady
// state a job allocates no record of its own.
type task struct {
	payload JobPayload
	// The completion sink, as data: a job launched by a Backend lane
	// carries the lane and its core.Job, and finish queues the result on
	// the lane's fleet; a job submitted through Server.Submit carries the
	// caller's callback.
	lane     *Backend
	job      core.Job
	done     func(Outcome)
	leaseID  uint64
	worker   string
	deadline time.Time
	// submitted and grantedAt are the span timeline's server-side
	// stamps: queue wait is grantedAt−submitted, and the server-side
	// grant→settle elapsed bounds the worker-reported stages. Both are
	// monotonic readings of the server's own clock — never differenced
	// against a worker timestamp.
	submitted time.Time
	grantedAt time.Time
}

// finish answers the task, exactly once (see task).
func (t *task) finish(out Outcome) {
	if t.lane != nil {
		t.lane.deliver(result{lane: t.lane, job: t.job, out: out})
		return
	}
	t.done(out)
}

// taskSlabLen is how many tasks Server.submit cuts from one allocation
// when the free list is empty — while a run's pipeline first fills — at
// the price that a single live task keeps its whole chunk (just under
// 32 KB, the allocator's largest size class) reachable.
const taskSlabLen = 100

// Server is the embedded HTTP job-lease server.
type Server struct {
	opts   Options
	timing timing // from opts.LeaseTTL and FlushInterval (timing.go)
	ln     net.Listener
	hs     *http.Server

	// mu is the server's one lock: it guards the lease table, every
	// *task (see task), the stream set and the control plane.
	mu  sync.Mutex
	tab leaseTable // leasetable.go
	// streams tracks the live binary stream connections, so Close can
	// tell every connected worker the run is over (stream.go).
	streams map[*streamConn]struct{}
	// control is the attached scheduler-side control plane, if any.
	control ControlPlane

	// lat is the per-job latency tracker behind the /metrics histogram
	// families and /v1/trace (latency.go); nil unless
	// Options.Metrics, and every hot-path hook checks for nil first.
	lat *latencyTracker

	// bus is the /v1/events ring (nil unless Options.Events).
	bus *obs.Bus
	// shard is the coordinator link of a federated shard (shard.go), nil
	// without Options.Coordinator: SetControl starts it, Close stops it.
	shard *shardLink
	// attached runs once, at the first SetControl: the shard link's
	// start, then the OnListen announce.
	attached sync.Once

	stopSweep func() // stops the expiry sweeper (sweepEvery)
}

// NewServer starts a job-lease server listening on opts.Listen.
func NewServer(opts Options) (*Server, error) {
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	if opts.BatchSize < 0 {
		opts.BatchSize = 0
	}
	if opts.Prefetch < 0 {
		opts.Prefetch = 0
	}
	if opts.StragglerK <= 0 {
		opts.StragglerK = defaultStragglerK
	}
	timing, err := timingFor(opts.LeaseTTL, 0, opts.FlushInterval)
	if err != nil {
		return nil, err
	}
	for tenant := range opts.TenantTokens {
		if tenant == "" {
			return nil, fmt.Errorf("remote: tenant token with empty tenant name")
		}
	}
	for tenant := range opts.TenantAdminTokens {
		if tenant == "" {
			return nil, fmt.Errorf("remote: tenant admin token with empty tenant name")
		}
	}
	if opts.Coordinator != "" && opts.ShardID == "" {
		return nil, fmt.Errorf("remote: a shard of coordinator %s needs a ShardID", opts.Coordinator)
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("remote: listen on %s: %w", opts.Listen, err)
	}
	s := &Server{
		opts:   opts,
		timing: timing,
		ln:     ln,
		// Lease IDs start at the server's start second shifted into the
		// high bits (exact in a JSON float64 until year ~2242, with 2^20
		// IDs per start second): two server generations never share
		// lease IDs, so a worker's stale pre-restart report can never
		// collide with — and settle — a fresh lease of the same number.
		tab:     newLeaseTable(timing.leaseTTL, uint64(time.Now().Unix())<<20, opts.MaxLeases),
		streams: make(map[*streamConn]struct{}),
	}
	if opts.Events {
		s.bus = obs.NewBus(opts.EventBuffer)
	}
	if opts.Coordinator != "" {
		s.shard = &shardLink{srv: s}
		s.shard.ctx, s.shard.cancel = context.WithCancel(context.Background())
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", s.handleRegister)
	mux.HandleFunc("/v1/report", s.handleRecord)
	mux.HandleFunc("/v1/heartbeat", s.handleRecord)
	mux.HandleFunc("/v1/stream", s.handleStream)
	if opts.Metrics {
		s.lat = newLatencyTracker()
		mux.HandleFunc("/metrics", s.handleMetrics)
		mux.HandleFunc("/v1/trace", s.handleTrace)
	}
	if opts.Events {
		mux.HandleFunc("/v1/events", s.handleEvents)
	}
	if opts.AdminToken != "" || len(opts.TenantAdminTokens) > 0 {
		mux.HandleFunc("/v1/admin/", s.handleAdmin)
		s.mountPprof(mux)
	}
	s.hs = &http.Server{Handler: mux}
	go func() { _ = s.hs.Serve(ln) }()
	s.stopSweep = sweepEvery(timing.leaseSweep, s.sweepOnce)
	return s, nil
}

// URL is the server's base URL ("http://host:port"), for workers.
func (s *Server) URL() string { return "http://" + s.ln.Addr().String() }

// Submit queues one job for the fleet. done is invoked exactly once —
// from an HTTP handler or sweeper goroutine — with the job's outcome.
func (s *Server) Submit(p JobPayload, done func(Outcome)) {
	s.submit(&task{payload: p, done: done})
}

// submit queues a copy of *job, which carries the payload and the
// completion sink, or answers it Failed if the server is closed.
func (s *Server) submit(job *task) {
	s.mu.Lock()
	queued := s.tab.submit(job, time.Now())
	s.mu.Unlock()
	if !queued {
		job.finish(Outcome{Failed: true})
	}
}

// recycle puts tasks whose finish has returned on the free list,
// skipping nil entries. Only a task's owner calls it (see task), once;
// a closed server keeps nothing.
func (s *Server) recycle(ts []*task) {
	for _, t := range ts {
		if t != nil {
			*t = task{} // drop the job's lane, checkpoint and vectors
		}
	}
	s.mu.Lock()
	s.tab.recycle(ts)
	s.mu.Unlock()
}

// ExpiredLeases reports how many leases have expired and been requeued
// over the server's lifetime.
func (s *Server) ExpiredLeases() int {
	c, _, _ := s.snapshot()
	return int(c.Expired)
}

// closeGrace is how long a closed server keeps answering HTTP after
// Close: workers whose stream handshake or report lands just after
// shutdown get an authoritative "the run is over" (204 No Content, or a
// report ack accepting nothing) instead of a connection error they
// would treat as a possible network partition and retry against for
// the full partition-tolerance window. What answers is the server alone — its
// counters and its "over": Close lets go of the run first, so the window
// never pins a finished run's schedulers and trial tables.
const closeGrace = 3 * time.Second

// Close shuts the server down: streaming workers are told the run is
// over, and every job still pending or leased is answered Failed so the
// caller's accounting drains. The control plane is detached and the
// task chunk and free list dropped.
// Close returns without waiting for the listener teardown (see
// closeGrace) and is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.tab.closed {
		s.mu.Unlock()
		return nil
	}
	orphans := s.tab.close()
	if s.shard != nil {
		// Not waited for: the link may be inside a control-plane call that
		// the engine closing this server answers only once Close returns.
		s.shard.cancel()
	}
	s.control = nil
	streams := make([]*streamConn, 0, len(s.streams))
	for sc := range s.streams {
		streams = append(streams, sc)
	}
	s.mu.Unlock()
	// Tell every binary stream worker the run is over, exactly as a
	// long-polling granter answers Done, then drop the connections.
	for _, sc := range streams {
		sc.shutdown()
	}
	if s.bus != nil {
		// End event streams now; /metrics keeps answering through the
		// closeGrace window so a final post-run scrape reconciles.
		s.bus.Close()
	}

	s.stopSweep()
	go func() {
		time.Sleep(closeGrace)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := s.hs.Shutdown(ctx); err != nil {
			_ = s.hs.Close()
		}
	}()
	for _, t := range orphans {
		t.finish(Outcome{Failed: true})
	}
	return nil
}

// sweepOnce is one pass of the heartbeat sweeper: it expires leases
// whose workers went silent and reports their jobs Failed, feeding the
// scheduler's retry path exactly as a subprocess crash does.
func (s *Server) sweepOnce(now time.Time) {
	s.mu.Lock()
	dead := s.tab.sweep(now)
	s.mu.Unlock()
	s.fail(dead)
}

// fail answers tasks taken out of the table Failed, in order, then
// recycles them.
func (s *Server) fail(ts []*task) {
	for _, t := range ts {
		t.finish(Outcome{Failed: true})
	}
	if len(ts) > 0 {
		s.recycle(ts)
	}
}

// --- wire messages ---

type wireError struct {
	Error string `json:"error"`
}

type registerReq struct {
	Version int    `json:"v"`
	Token   string `json:"token,omitempty"`
	Name    string `json:"name,omitempty"`
	// Experiments, when non-empty, announces which experiments the
	// worker is configured to serve. A coordinator uses it to route the
	// worker to the shard owning those experiments; a shard rejects
	// registration for experiments outside the token's tenant scope.
	Experiments []string `json:"experiments,omitempty"`
}

type registerResp struct {
	Version  int    `json:"v"`
	WorkerID string `json:"worker,omitempty"`
	// Redirect, when non-empty, is the base URL of the server the worker
	// should register with instead — the coordinator's advert of the
	// shard owning the worker's experiments. No worker ID is assigned;
	// the worker re-registers at the advertised address.
	Redirect       string `json:"redirect,omitempty"`
	LeaseTTLMillis int64  `json:"leaseTTLms"`
	// BatchSize, Prefetch and FlushMillis advertise the fleet-wide
	// batching defaults configured on the server (see Options); a
	// worker without explicit local settings adopts them, so one knob
	// at the tuner tunes the whole fleet.
	BatchSize   int   `json:"batch,omitempty"`
	Prefetch    int   `json:"prefetch,omitempty"`
	FlushMillis int64 `json:"flushMs,omitempty"`
}

// frameResp answers a frame POSTed to /v1/report or /v1/heartbeat with
// the ack frame the stream would have written.
type frameResp struct {
	Version int    `json:"v"`
	Frame   []byte `json:"frame"`
}

// --- HTTP handlers ---

// maxPostBody bounds a POST body: one frame of wire.MaxFrameBody bytes,
// base64-encoded as a fallback envelope carries it, plus slack for the
// envelope's other fields. The body is bounded before it is decoded, so
// no client — authenticated or not — makes the server buffer more.
const maxPostBody = (wire.MaxFrameBody+2)/3*4 + 64<<10

// decodePost parses a POST body into v and enforces the wire version,
// which version points at inside v. It writes the error response itself
// and returns false on rejection: 413 for a body over maxPostBody.
func decodePost(w http.ResponseWriter, r *http.Request, version *int, v interface{}) bool {
	if r.Method != http.MethodPost {
		reject(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPostBody)).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			reject(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		reject(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	if *version != ProtocolVersion {
		reject(w, http.StatusBadRequest,
			fmt.Sprintf("protocol version %d not supported (server speaks %d)", *version, ProtocolVersion))
		return false
	}
	return true
}

// decodeWorker is decodePost plus the credential check for a registered
// worker's request: a bad token is a 401, and so is a token of another
// scope than the worker registered under, so one tenant's credential
// can never settle or extend another tenant's leases.
func (s *Server) decodeWorker(w http.ResponseWriter, r *http.Request, req *streamReq) bool {
	if !decodePost(w, r, &req.Version, req) {
		return false
	}
	tenant, _, ok := tokenScope(req.Token, s.opts.Token, s.opts.TenantTokens)
	if !ok {
		reject(w, http.StatusUnauthorized, "bad or missing worker token")
		return false
	}
	// An unknown worker passes: it fails the usual unknown-worker paths
	// (410, lease-owner mismatch) downstream.
	s.mu.Lock()
	registered, known := s.tab.workers[req.WorkerID]
	s.mu.Unlock()
	if known && registered != tenant {
		reject(w, http.StatusUnauthorized, "token scope does not match worker registration")
		return false
	}
	return true
}

// tokenIs reports, in constant time so a check leaks no prefix of the
// secret, whether got is the credential want. An unset credential
// (want == "") matches nothing.
func tokenIs(got, want string) bool {
	return want != "" && subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}

// tokenScope classifies a presented worker token against the fleet
// token and the tenant tokens — a Server's, or a Coordinator's mirror
// of them for routing: the fleet token (or no credential configured)
// grants unscoped access, a tenant token access scoped to its tenant,
// anything else is rejected.
func tokenScope(token, fleet string, tenants map[string]string) (tenant string, scoped, ok bool) {
	if fleet == "" && len(tenants) == 0 || tokenIs(token, fleet) {
		return "", false, true
	}
	for t, tok := range tenants {
		if tokenIs(token, tok) {
			return t, true, true
		}
	}
	return "", false, false
}

// admitWorker checks a registering worker's credentials, writing the
// rejection itself: 401 for a bad token, 403 for a tenant-scoped worker
// asking for another tenant's experiment — refused here, where it
// would otherwise just starve.
func admitWorker(w http.ResponseWriter, req *registerReq, fleet string, tenants map[string]string) (tenant string, ok bool) {
	tenant, scoped, ok := tokenScope(req.Token, fleet, tenants)
	if !ok {
		reject(w, http.StatusUnauthorized, "bad or missing worker token")
		return "", false
	}
	for _, e := range req.Experiments {
		if scoped && TenantOf(e) != tenant {
			reject(w, http.StatusForbidden, fmt.Sprintf("experiment %q is outside tenant %q", e, tenant))
			return "", false
		}
	}
	return tenant, true
}

func reject(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wireError{Error: msg})
}

func reply(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerReq
	if !decodePost(w, r, &req.Version, &req) {
		return
	}
	tenant, ok := admitWorker(w, &req, s.opts.Token, s.opts.TenantTokens)
	if !ok {
		return
	}
	s.mu.Lock()
	id := s.tab.register(tenant)
	s.mu.Unlock()
	reply(w, registerResp{
		Version:        ProtocolVersion,
		WorkerID:       id,
		LeaseTTLMillis: s.timing.leaseTTL.Milliseconds(),
		BatchSize:      s.opts.BatchSize,
		Prefetch:       s.opts.Prefetch,
		FlushMillis:    s.timing.flush.Milliseconds(),
	})
}

// grantCap is how many jobs a poll asking for max — the worker's free
// room — may be granted: that, or an explicit BatchSize if lower; never
// less than one.
func (s *Server) grantCap(max int) int {
	if s.opts.BatchSize > 0 && max > s.opts.BatchSize {
		max = s.opts.BatchSize
	}
	if max < 1 {
		max = 1
	}
	return max
}

// grantState classifies a grant that handed out nothing.
type grantState int

const (
	grantOK   grantState = iota // tasks granted, or none available (sleep on wake)
	grantDone                   // closed or draining: the run is over for this worker
	grantGone                   // unknown worker: register again
)

// grantedJob is what a grants frame carries of one granted task.
type grantedJob struct {
	lease     uint64
	grantedAt time.Time
	queued    time.Duration // for the queue-wait histogram
	payload   JobPayload
}

// handleRecord serves /v1/report and /v1/heartbeat, the agent's
// fallback while its stream is down: the envelope carries one frame of
// the type the path names, exactly as the stream would have, and the
// answer carries the ack frame the stream would have written back.
// Anything else — no frame, another type, a frame that does not decode —
// is a 400 that settles nothing.
func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	var req streamReq
	if !s.decodeWorker(w, r, &req) {
		return
	}
	want := byte(frameReports)
	if r.URL.Path == "/v1/heartbeat" {
		want = frameHeartbeat
	}
	if len(req.Frame) == 0 || req.Frame[0] != want {
		reject(w, http.StatusBadRequest, fmt.Sprintf("%s carries one frame of type 0x%02x", r.URL.Path, want))
		return
	}
	body := wire.NewReader(req.Frame[1:])
	var ack []byte
	if want == frameReports {
		var rb binReports
		if err := rb.decode(body); err != nil {
			reject(w, http.StatusBadRequest, err.Error())
			return
		}
		ack = s.settleReports(req.WorkerID, &rb, false, nil, new(settleScratch))
	} else {
		hb, err := decodeHeartbeat(body)
		if err != nil {
			reject(w, http.StatusBadRequest, err.Error())
			return
		}
		ack = s.heartbeat(req.WorkerID, hb, nil)
	}
	reply(w, frameResp{Version: ProtocolVersion, Frame: ack})
}

// heartbeat is the heartbeat core of the stream reader and
// /v1/heartbeat: it extends the worker's leases and appends to enc the
// ack naming those it no longer holds (expired and requeued — the
// worker should abandon those runs).
func (s *Server) heartbeat(worker string, hb binHeartbeat, enc []byte) []byte {
	s.observeHeartbeatRTT(hb.RttUs)
	now := time.Now()
	s.mu.Lock()
	expired := s.tab.extend(worker, hb.Leases, now)
	s.mu.Unlock()
	return appendHeartbeatAck(enc, expired)
}
