package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/exec"
	"repro/internal/wire"
)

// AgentOptions configures one worker agent.
type AgentOptions struct {
	// Server is the lease server's base URL, e.g. "http://tuner:8700".
	Server string
	// Token is the shared worker-auth secret (must match the server's).
	Token string
	// Name is an optional human-readable worker name.
	Name string
	// Slots is the number of jobs the worker runs concurrently
	// (default 1).
	Slots int
	// Resolve maps a job's experiment name to the objective that trains
	// it. Single-experiment fleets ignore the name.
	Resolve func(experiment string) (exec.Objective, error)
	// Experiments, when non-empty, restricts leases to jobs of the
	// named experiments. A worker whose Resolve only knows some of a
	// fleet's experiments must set this so it never receives — and so
	// never fatally fails — jobs it cannot train.
	Experiments []string
	// RegisterTimeout bounds how long the agent keeps retrying an
	// unreachable server (default 30s) — both the initial registration
	// while the server is still coming up, and lease polls during a
	// network partition before the agent concludes the run is over.
	RegisterTimeout time.Duration
}

// heldLease tracks one lease this worker currently owns, from grant to
// settled report — the job's one record on the worker: queued (cancel
// nil, done false), running (cancel set), or completed-awaiting-flush
// (done true). All states are heartbeated — a prefetched job waiting in
// the local queue must not expire under the worker holding it. Pipeline
// stages pass the pointer along and settle through it, never by
// re-looking-up the lease ID: after a server restart a fresh
// registration may be granted a lease number a stale pre-restart entry
// also used, and ID-keyed settlement would cross the two. gone is that
// identity as a flag: it is set, under a.mu, exactly when the record
// stops being its ID's entry in held — at release, and when a fresh
// grant of the same number supersedes it — so "!h.gone" answers what
// "held[id] == h" would without the probe.
//
// Records are recycled through the agent's free list (a.free, under
// a.mu), and a record owns its bytes: the stream reader copies each
// grant's config vector and checkpoint out of the frame into capacity
// the record keeps. A record goes back on the list only at the one stage
// that drops its last pointer — a slot dropping an expired, forfeited or
// run-over job (release), the ack that trims unacked, or the fallback
// POST (releaseAll) — and only there, once. One that is superseded or
// marked expired flows on to its own last stage; a record that never
// reaches one (the context ended) is left to the collector.
//
// The four flags are guarded by a.mu. The rest is the job and then its
// result, each written by one stage before it sends the pointer on
// (reader and fetcher → a.jobs → slot → a.reports → reporter), so the
// channels order every access.
type heldLease struct {
	cancel  context.CancelFunc
	expired bool // the lease is gone (server said so, or it predates a re-registration)
	done    bool // completed, sitting in the report buffer
	gone    bool // no longer this ID's entry in held: its accounting is settled

	// job is the grant as the stream carried it (job.ID is the lease ID;
	// job.Vec and job.State are the record's own copies) and table the
	// experiment and parameter names its vector aligns with: the
	// name-keyed config is resolved only when a slot runs the job, into
	// the slot's own map.
	job   exec.BinRequest
	table *clientTable
	// next links the records of one grants frame, reader to fetcher.
	next *heldLease
	// recv is the local monotonic receive time of the grant; every stage
	// duration is measured from it.
	recv time.Time

	// resp is the completed response awaiting a report flush; dwell
	// (queue wait inside this worker) and exec are its worker-measured
	// stage durations, so the job was done at recv+dwell+exec. ckpt
	// backs resp.State when the checkpoint is a float.
	resp  exec.BinResponse
	dwell time.Duration
	exec  time.Duration
	ckpt  [24]byte
}

// agent is one connected worker running the prefetch pipeline: a
// fetcher goroutine keeps the local job queue topped up with batched
// lease polls, Slots executor goroutines drain it, and a reporter
// goroutine flushes completed responses in batches — so objective
// execution, the next lease poll, and result delivery all overlap
// instead of serializing one round trip per job.
type agent struct {
	o      AgentOptions
	client *http.Client
	// server is the base URL the agent currently talks to (atomic.Value
	// of string): it starts at o.Server and moves when a registration
	// reply carries a redirect advert (a coordinator routing the worker
	// to its owning shard). home keeps the original o.Server so a
	// worker whose shard dies can go back and be routed to the
	// survivor.
	server atomic.Value
	home   string
	// regMu single-flights (re-)registration; worker and ttl are read
	// under mu by the pipeline goroutines.
	regMu  sync.Mutex
	worker string
	ttl    time.Duration
	// The fleet's batching parameters, as the server advertised them at
	// the first registration (Options.BatchSize, Prefetch, FlushInterval):
	// batch caps the jobs asked for per lease poll and is the report-flush
	// size — the reporter waits up to flushInt for batch completed
	// responses and sends at most batch per frame; 0 is "unset": a poll
	// asks for all the free capacity, a report frame carries what is ready
	// and waits for nothing. prefetch is the depth of the local job queue:
	// jobs leased ahead of the ones the slots are training, each holding
	// its own lease, heartbeated while it waits.
	batch    int
	prefetch int
	flushInt time.Duration
	// runOver is set when the server reports the run is over or a
	// deterministic rejection dooms the worker, so every pipeline stage
	// unwinds instead of waiting out the partition-tolerance window.
	runOver atomic.Bool

	jobs    chan *heldLease // fetcher -> slots (buffered to Slots+Prefetch)
	reports chan *heldLease // slots -> reporter
	kick    chan struct{}   // wakes the fetcher when lease capacity frees

	// bsMu guards bs, the live binary stream (nil before the first dial
	// and after a stream dies). The fetcher owns dialing and leaseSeq;
	// repSeq belongs to the reporter goroutine — neither needs a lock.
	bsMu     sync.Mutex
	bs       *binStream
	leaseSeq uint64
	repSeq   uint64

	// The reporter goroutine's FIFO of report frames sent on sentOn and
	// not yet acked, oldest first, at most ackWindow: frame i carried the
	// next sent[i].n records of unacked, which stay held (and heartbeated)
	// until its ack or a re-delivery. ackWait is how old the head may get.
	sentOn  *binStream
	sent    []sentFrame
	unacked []*heldLease
	ackWait time.Duration

	// Reporter-goroutine scratch, reused flush to flush: a frame's
	// entries, their timings, and the frame they encode to.
	repBin     []exec.BinResponse
	repTimings []JobTiming
	repEnc     []byte
	// pollEnc is the fetcher's lease-poll encode buffer.
	pollEnc []byte

	// lastRTTUs is the previous POSTed heartbeat's measured round trip,
	// shipped on the next one (the server can't observe a client-side
	// RTT any other way).
	lastRTTUs atomic.Int64

	mu   sync.Mutex
	held map[uint64]*heldLease
	// free holds records whose last stage has passed (see heldLease).
	free []*heldLease
	// active counts held leases still owed work (queued or running;
	// not yet done), maintained incrementally — the pipeline consults
	// it on every transition, so iterating held would be O(capacity)
	// per job.
	active int
}

// sentFrame is one report frame awaiting its ack: the sequence number
// the ack must echo, how many records it carried, when it left.
type sentFrame struct {
	seq uint64
	n   int
	at  time.Time
}

// ackWindow bounds the report frames an agent keeps sent and unacked (a
// full window holds the reporter back, so a healthy server's acks always
// fit the stream's ack channel); reportAckWait is how long the oldest may
// stay unacked before the stream counts as wedged.
const (
	ackWindow     = 8
	reportAckWait = 10 * time.Second
)

// ServeAgent connects to a lease server and executes jobs until the
// context is cancelled or the server reports the run is over. Workers
// are elastic: an agent may connect mid-run and immediately receives
// queued jobs. It heartbeats its in-flight leases (queued, running, and
// completed-unflushed alike); if the agent dies instead, the server
// expires its leases and requeues the jobs.
func ServeAgent(ctx context.Context, o AgentOptions) error {
	if o.Server == "" {
		return fmt.Errorf("remote: agent needs a server URL")
	}
	if o.Resolve == nil {
		return fmt.Errorf("remote: agent needs an objective resolver")
	}
	if o.Slots < 1 {
		o.Slots = 1
	}
	if o.RegisterTimeout <= 0 {
		o.RegisterTimeout = 30 * time.Second
	}
	a := &agent{
		o:       o,
		client:  &http.Client{},
		home:    o.Server,
		held:    make(map[uint64]*heldLease),
		kick:    make(chan struct{}, 1),
		ackWait: reportAckWait,
	}
	a.server.Store(o.Server)
	if err := a.register(ctx, ""); err != nil {
		return err
	}
	// The fetcher never leases beyond Slots+Prefetch unsettled jobs, so
	// these buffers make every pipeline send non-blocking in the steady
	// state (the reports buffer adds slack for a flush mid-retry).
	capacity := a.o.Slots + a.prefetch
	a.jobs = make(chan *heldLease, capacity)
	a.reports = make(chan *heldLease, capacity+a.batch)

	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go a.heartbeatLoop(ctx, hbStop, hbDone)
	repDone := make(chan struct{})
	go func() {
		defer close(repDone)
		a.reportLoop(ctx)
	}()
	var slots sync.WaitGroup
	for i := 0; i < a.o.Slots; i++ {
		slots.Add(1)
		go func() {
			defer slots.Done()
			a.slotLoop(ctx)
		}()
	}

	err := a.fetchLoop(ctx) // closes a.jobs on return
	// However the fetcher ended — run over, deterministic rejection, a
	// dead server, a cancelled context — the pipeline is over: the
	// slots must drop queued jobs (their leases die with the run, and
	// with real objectives a queue of prefetched jobs is hours of
	// wasted training), not execute them.
	a.runOver.Store(true)
	slots.Wait()
	close(a.reports)
	<-repDone
	close(hbStop)
	<-hbDone
	if bs := a.curStream(); bs != nil {
		bs.close()
	}
	if err != nil {
		return err
	}
	return ctx.Err()
}

// serverURL returns the base URL the agent currently talks to.
func (a *agent) serverURL() string {
	return a.server.Load().(string)
}

// setServerURL points the agent at a different server (a redirect
// advert, or the trip back home after a shard death).
func (a *agent) setServerURL(u string) {
	a.server.Store(u)
}

// workerID returns the current registration's worker ID.
func (a *agent) workerID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.worker
}

// leaseTTL returns the lease TTL of the current registration.
func (a *agent) leaseTTL() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ttl
}

// curStream returns the live binary stream, or nil if there is none
// (never dialed, or the last one died — the fetcher will redial).
func (a *agent) curStream() *binStream {
	a.bsMu.Lock()
	defer a.bsMu.Unlock()
	if a.bs != nil && !a.bs.alive() {
		a.bs = nil
	}
	return a.bs
}

func (a *agent) setStream(bs *binStream) {
	a.bsMu.Lock()
	a.bs = bs
	a.bsMu.Unlock()
}

// activeLeases reports the leases still owed work — queued or running.
// Completed jobs awaiting a report flush keep their lease (and its
// heartbeat) but no longer occupy pipeline capacity.
func (a *agent) activeLeases() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}

// release drops a job a slot will not report — forfeited, expired or
// run over — and recycles its record, then wakes the fetcher: its
// capacity slot is free again.
func (a *agent) release(id uint64, h *heldLease) {
	a.mu.Lock()
	a.releaseLocked(id, h)
	a.free = append(a.free, h)
	a.mu.Unlock()
	a.kickFetch()
}

// spare returns the records for one grants frame, one per grant in
// grant order, linked through next: recycled ones while the free list
// lasts, linked after the new ones made for the rest. A recycled record
// comes back zeroed but for the capacity of its vector and checkpoint.
func (a *agent) spare(grants []binGrant) *heldLease {
	n := len(grants)
	var first *heldLease
	a.mu.Lock()
	for ; n > 0 && len(a.free) > 0; n-- {
		h := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		*h = heldLease{next: first, job: exec.BinRequest{Vec: h.job.Vec[:0], State: h.job.State[:0]}}
		first = h
	}
	a.mu.Unlock()
	return newLeases(grants[:n], first)
}

// newLeases returns a new record for each of grants, cut from one slice
// and linked through next in grant order ahead of first. Each record's
// vector and checkpoint capacity is its grant's, cut from one slab of
// floats and one of bytes, so holding the grant allocates nothing.
func newLeases(grants []binGrant, first *heldLease) *heldLease {
	if len(grants) == 0 {
		return first
	}
	floats, bytes := 0, 0
	for i := range grants {
		floats += len(grants[i].Job.Vec)
		bytes += len(grants[i].Job.State)
	}
	vecs, states := make([]float64, floats), make([]byte, bytes)
	fresh := make([]heldLease, len(grants))
	for i := len(fresh) - 1; i >= 0; i-- {
		h := &fresh[i]
		if n := len(grants[i].Job.Vec); n > 0 {
			h.job.Vec, vecs = vecs[:0:n], vecs[n:]
		}
		if n := len(grants[i].Job.State); n > 0 {
			h.job.State, states = states[:0:n], states[n:]
		}
		h.next = first
		first = h
	}
	return first
}

// hold makes h the record of grant job against table, copying the
// vector and checkpoint, which alias the frame, into h's own capacity.
func (h *heldLease) hold(job exec.BinRequest, table *clientTable) {
	vec, state := append(h.job.Vec[:0], job.Vec...), append(h.job.State[:0], job.State...)
	h.job, h.table = job, table
	h.job.Vec, h.job.State = vec, state
}

// releaseLocked takes h out of held and settles its accounting, unless
// that already happened (released before, or superseded by a newer
// entry under the same ID, which the table now maps). Callers hold a.mu.
func (a *agent) releaseLocked(id uint64, h *heldLease) {
	if h.gone {
		return
	}
	h.gone = true
	if !h.done {
		a.active--
	}
	delete(a.held, id)
}

func (a *agent) kickFetch() {
	select {
	case a.kick <- struct{}{}:
	default:
	}
}

// maxRedirectHops caps how many redirect adverts one registration
// follows before concluding the coordinators are pointing at each
// other.
const maxRedirectHops = 5

// register announces the worker, retrying with backoff so a worker may
// be started before (or independently of) the tuning process. staleID
// is the registration being replaced ("" initially): when a server
// restart is noticed, only the first caller re-registers and the rest
// see the refreshed ID and return immediately.
func (a *agent) register(ctx context.Context, staleID string) error {
	a.regMu.Lock()
	defer a.regMu.Unlock()
	if a.workerID() != staleID {
		return nil // another caller already refreshed the registration
	}
	deadline := time.Now().Add(a.o.RegisterTimeout)
	origin := a.serverURL()
	var lastErr error
	hops := 0
	for {
		var resp registerResp
		status, err := a.post(ctx, "/v1/register",
			registerReq{Version: ProtocolVersion, Token: a.o.Token, Name: a.o.Name,
				Experiments: a.o.Experiments}, &resp, 5*time.Second)
		if err == nil && resp.Redirect != "" {
			// A coordinator's advert: the named shard owns this worker's
			// experiments — register there instead. The hop cap turns a
			// misconfigured redirect cycle into a prompt error rather
			// than an infinite loop.
			hops++
			if hops > maxRedirectHops {
				return fmt.Errorf("remote: agent redirect loop (%d hops, last advert %s)", hops, resp.Redirect)
			}
			a.setServerURL(resp.Redirect)
			continue
		}
		if err == nil {
			ttl := time.Duration(resp.LeaseTTLMillis) * time.Millisecond
			if ttl <= 0 {
				ttl = 15 * time.Second
			}
			a.mu.Lock()
			if staleID != "" {
				// The server restarted: every lease this worker holds
				// belongs to the previous server generation. Expire them
				// all — queued jobs drop on dequeue, running jobs are
				// cancelled, buffered reports are filtered at flush — so
				// no stale job or result can ever settle a fresh lease
				// that happens to reuse the same number.
				for _, h := range a.held {
					h.expired = true
					if h.cancel != nil {
						h.cancel()
					}
				}
			}
			a.worker = resp.WorkerID
			a.ttl = ttl
			if staleID == "" {
				// The first advert sizes the pipeline's queues, which a
				// re-registration finds built and its stages reading these.
				a.batch = max(resp.BatchSize, 0)
				a.prefetch = max(resp.Prefetch, 0)
				a.flushInt = max(time.Duration(resp.FlushMillis)*time.Millisecond, 0)
			}
			a.mu.Unlock()
			return nil
		}
		if status >= 400 && status < 500 {
			// A deterministic rejection (bad token, version mismatch):
			// retrying the same credentials cannot succeed, so surface it
			// immediately instead of after the full retry window.
			return fmt.Errorf("remote: agent rejected by %s: %w", a.serverURL(), err)
		}
		lastErr = err
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("remote: agent failed to register with %s: %w", a.serverURL(), lastErr)
		}
		// A dead hop — typically a coordinator advert for a shard that
		// crashed and has not been failed over yet. Fall back to the
		// entry point so the next attempt re-derives the route (after
		// failover the advert names the survivor) instead of retrying
		// the corpse until the deadline.
		a.setServerURL(origin)
		hops = 0
		select {
		case <-time.After(250 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// fetchLoop is the pipeline's lease stage: whenever the pipeline has free
// capacity (Slots+Prefetch unsettled jobs) it long-polls the stream for
// all of it, or an explicit BatchSize of it, registers each grant's lease, and
// queues the jobs for the executor slots — so while the slots train,
// the next batch is already on the wire. A non-nil return is a
// deterministic rejection worth surfacing; nil means the run ended (or
// the context was cancelled). Closes a.jobs on return.
func (a *agent) fetchLoop(ctx context.Context) error {
	defer close(a.jobs)
	capacity := a.o.Slots + a.prefetch
	// The low-watermark refill: polling the moment one slot frees would
	// degenerate the pipeline back to one-job round trips once primed,
	// so the fetcher waits until a worthwhile chunk of capacity is free
	// and every poll moves many jobs. The watermark is capped at
	// Prefetch — never the slots' share of capacity — so the prefetch
	// queue keeps the slots training while the poll is on the wire;
	// waiting for a full BatchSize of capacity would drain the slots idle
	// whenever BatchSize >= Slots+Prefetch.
	threshold := a.batch
	if threshold > a.prefetch {
		threshold = a.prefetch
	}
	if threshold < 1 {
		threshold = 1
	}
	var failingSince time.Time
	refusals := 0
	// Per-batch scratch, reused across polls: the queue of accepted
	// grants built under one lock hold (per-grant lock round trips were
	// a measurable share of the steady-state pipeline at fleet batch
	// sizes).
	var accepted []*heldLease
	timer := newStoppedTimer() // binPoll's wedged-stream watchdog
	defer timer.Stop()
	for ctx.Err() == nil && !a.runOver.Load() {
		free := capacity - a.activeLeases()
		if free < threshold {
			select {
			case <-a.kick:
			case <-ctx.Done():
			}
			continue
		}
		max := free
		if a.batch > 0 && max > a.batch {
			max = a.batch
		}
		wid := a.workerID()
		sb, status, err := a.binPoll(ctx, wid, max, timer)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			switch {
			case status == http.StatusGone:
				// The server restarted and lost this worker's identity:
				// register again (single-flight) and resume leasing.
				if rerr := a.register(ctx, wid); rerr != nil {
					return rerr
				}
				continue
			case status >= 400 && status < 500:
				// Deterministic rejection (bad token, version skew):
				// retrying cannot succeed.
				return err
			}
			// Two kinds of unreachable: the host actively refusing the
			// connection means the tuning process exited (a graceful
			// shutdown answers Done, a dead process cannot), so exit
			// cleanly after a couple of confirmations; a timeout or
			// dropped connection may be a transient partition, so keep
			// retrying for the same window registration tolerates before
			// concluding the fleet is gone.
			if errors.Is(err, syscall.ECONNREFUSED) {
				refusals++
				if refusals >= 4 {
					if a.rehome(ctx, wid) {
						failingSince, refusals = time.Time{}, 0
						continue
					}
					return nil
				}
			} else {
				refusals = 0
			}
			if failingSince.IsZero() {
				failingSince = time.Now()
			}
			if time.Since(failingSince) > a.o.RegisterTimeout {
				if a.rehome(ctx, wid) {
					failingSince, refusals = time.Time{}, 0
					continue
				}
				return nil
			}
			select {
			case <-time.After(500 * time.Millisecond):
			case <-ctx.Done():
				return nil
			}
			continue
		}
		failingSince = time.Time{}
		refusals = 0
		if sb.done {
			a.runOver.Store(true)
			return nil
		}
		accepted = accepted[:0]
		recv := time.Now()
		a.mu.Lock()
		// The decoder refused a frame granting one lease twice, so every
		// record here is a distinct lease.
		for h := sb.leases; h != nil; h = h.next {
			id := h.job.ID
			if old := a.held[id]; old != nil {
				// A stale entry under the same number (a pre-restart
				// lease): settle its accounting now — its queued job or
				// buffered report will be dropped on its gone flag.
				old.expired = true
				old.gone = true
				if old.cancel != nil {
					old.cancel()
				}
				if !old.done {
					a.active--
				}
			}
			h.recv = recv
			a.held[id] = h
			a.active++
			accepted = append(accepted, h)
		}
		a.mu.Unlock()
		for _, h := range accepted {
			select {
			case a.jobs <- h:
			case <-ctx.Done():
				return nil
			}
		}
	}
	return nil
}

// binPoll answers one lease poll over the binary stream, dialing (or
// redialing) it first when none is live: the batch carries the grants'
// records or done, a refused handshake surfaces its HTTP status (410
// makes the caller re-register), transport failures return a plain
// error the caller backs off on. timer is the fetcher's, reused.
func (a *agent) binPoll(ctx context.Context, wid string, max int, timer *time.Timer) (streamBatch, int, error) {
	bs := a.curStream()
	if bs == nil {
		var done bool
		var status int
		var err error
		bs, done, status, err = a.dialStream(ctx, wid)
		if err != nil {
			return streamBatch{}, status, err
		}
		if done {
			return streamBatch{done: true}, http.StatusOK, nil
		}
		a.setStream(bs)
	}
	a.leaseSeq++
	seq := a.leaseSeq
	a.pollEnc = appendLeaseReq(a.pollEnc[:0], binLeaseReq{Seq: seq, Max: max, WaitMillis: 15000, Experiments: a.o.Experiments})
	if !bs.send(a.pollEnc) {
		return streamBatch{}, 0, fmt.Errorf("remote: binary stream write failed")
	}
	rearm(timer, 25*time.Second)
	select {
	case sb := <-bs.grants:
		// Done is honored whatever its sequence: the server's shutdown
		// notice is unsolicited (seq 0).
		if !sb.done && sb.seq != seq {
			bs.close()
			return streamBatch{}, 0, fmt.Errorf("remote: binary grants answered seq %d, want %d", sb.seq, seq)
		}
		return sb, http.StatusOK, nil
	case <-bs.dead:
		return streamBatch{}, 0, fmt.Errorf("remote: binary stream closed")
	case <-timer.C:
		// The server answers every poll within its 30s wait cap; a
		// silent 25s says the stream is wedged, not empty.
		bs.close()
		return streamBatch{}, 0, fmt.Errorf("remote: binary lease poll timed out")
	case <-ctx.Done():
		return streamBatch{}, 0, ctx.Err()
	}
}

// rehome sends a worker whose current server died back to its
// original one — the coordinator, in a federated fleet, whose
// register reply redirects it to whichever shard owns its experiments
// now (the failover survivor). The stale registration's leases are
// purged by register's staleID path, so nothing from the dead shard's
// generation can settle on the new one. false means there is nowhere
// to go: the agent already points at its original server.
func (a *agent) rehome(ctx context.Context, staleID string) bool {
	if a.home == "" || a.serverURL() == a.home {
		return false
	}
	if bs := a.curStream(); bs != nil {
		bs.close()
	}
	a.setServerURL(a.home)
	return a.register(ctx, staleID) == nil
}

// slotCtx is what one executor slot reuses from job to job: its
// cancellable job context, and under it the exec.Slot scratch the
// objective's trial context and config map are cut from. A fresh
// context.WithCancel per job was two allocations and a parent-child
// registration on the per-job path, and the cancel only ever fires on a
// lease expiry — so the context is recreated after a cancellation
// instead of before every job. The slot runs one job at a time and
// h.cancel is cleared (under a.mu) before the slot moves on, so a
// cancellation aimed at a finished job can never reach its successor
// through the shared context.
type slotCtx struct {
	ctx    context.Context
	cancel context.CancelFunc
	slot   exec.Slot
}

// slotLoop is one executor slot: it drains the local job queue until
// the fetcher closes it.
func (a *agent) slotLoop(ctx context.Context) {
	var sc slotCtx
	defer func() {
		if sc.cancel != nil {
			sc.cancel()
		}
	}()
	for h := range a.jobs {
		if ctx.Err() != nil || a.runOver.Load() {
			a.release(h.job.ID, h)
			continue
		}
		a.runOne(ctx, h, &sc)
	}
}

// runOne executes one leased job and hands its record, now carrying the
// response, to the reporter. The job runs under the slot's cancellable
// context: if the server expires the lease mid-job (the heartbeat
// answer lists it), training is cancelled — its report would be
// rejected anyway, and the slot is better spent on live work.
func (a *agent) runOne(ctx context.Context, h *heldLease, sc *slotCtx) {
	job := &h.job
	a.mu.Lock()
	if h.expired {
		// The lease expired while the job sat in the prefetch queue
		// (heartbeat said so, or it predates a re-registration): the
		// server has already requeued it elsewhere.
		a.mu.Unlock()
		a.release(job.ID, h)
		return
	}
	if sc.ctx == nil || sc.ctx.Err() != nil {
		sc.ctx, sc.cancel = context.WithCancel(ctx)
	}
	jobCtx := sc.ctx
	h.cancel = sc.cancel
	a.mu.Unlock()

	// Stage clocks: every duration is the difference of two local
	// time.Now readings, so Go's monotonic clock carries them — wall
	// clock steps (NTP, suspend) cannot produce negative or absurd
	// stages, and no remote timestamp is ever subtracted from a local
	// one.
	start := time.Now()
	h.dwell = start.Sub(h.recv)
	if obj, err := a.o.Resolve(h.table.experiment); err != nil {
		// An unresolvable experiment is deterministic: report it as a
		// fatal job error so the run surfaces it instead of retrying
		// forever.
		h.resp = exec.BinResponse{ID: job.ID, IsErr: true, Err: err.Error()}
	} else {
		h.resp = sc.slot.RunJob(jobCtx, obj, h.table.params, *job, h.ckpt[:0])
	}
	h.exec = time.Since(start)
	if jobCtx.Err() != nil && ctx.Err() == nil {
		// The lease was forfeited while training: the server has already
		// requeued the job, so there is nothing worth reporting.
		a.release(job.ID, h)
		return
	}
	a.mu.Lock()
	h.cancel = nil
	h.done = true
	if !h.gone {
		a.active--
	}
	a.mu.Unlock()
	// A completed job frees pipeline capacity even before its report
	// flushes — the fetcher can lease its replacement immediately.
	a.kickFetch()
	select {
	case a.reports <- h:
	case <-ctx.Done():
	}
}

// reportLoop is the pipeline's delivery stage, and never waits on the
// server. A completion is joined by every other already queued (up to an
// explicit BatchSize) and the frame leaves at once if it is full, if no
// BatchSize asks it to wait, or if the agent has nothing left in flight (a starving
// tuner should not wait on a timer for results that are already done) —
// else when its oldest entry has waited FlushInterval. Sent frames wait in
// a FIFO: an ack releases the oldest; an ack out of sequence or a head
// older than ackWait closes the stream, and a closed stream re-delivers
// them all to /v1/report. The loop ends once the pipeline has shut
// down and every frame is settled.
func (a *agent) reportLoop(ctx context.Context) {
	var pending []*heldLease
	flush, ackBy := newStoppedTimer(), newStoppedTimer()
	defer flush.Stop()
	defer ackBy.Stop()
	var flushC, ackByC <-chan time.Time // nil while not armed
	reports := a.reports
	for {
		in, flushNow := reports, flushC
		var acks <-chan binReportAck
		var dead <-chan struct{}
		if len(a.sent) > 0 {
			acks, dead = a.sentOn.acks, a.sentOn.dead
			if len(a.sent) == ackWindow {
				in, flushNow = nil, nil // nothing more leaves until an ack makes room
			}
			if ackByC == nil {
				// Armed per wait, not per frame: when it fires early it is
				// armed again for whichever frame is the oldest by then.
				rearm(ackBy, a.ackWait-time.Since(a.sent[0].at))
				ackByC = ackBy.C
			}
		} else if reports == nil {
			return
		}
		select {
		case h, ok := <-in:
			if !ok {
				// Pipeline shut down: deliver what is buffered while the
				// leases are still warm (unless the run is already over —
				// the server has settled everything as Failed by then).
				reports = nil
				if ctx.Err() == nil && !a.runOver.Load() {
					pending = a.flushReports(ctx, pending, a.curStream())
				}
				break
			}
			pending = append(pending, h)
			if a.batch == 0 {
				// Nothing will hold this frame back, so let what is landing
				// land: slots whose jobs ended in the same instant are
				// runnable behind this goroutine, which the first of them
				// woke, and their results (and the poll for their
				// replacements) then share a frame instead of taking one each.
				runtime.Gosched()
			}
		ready:
			for a.batch == 0 || len(pending) < a.batch {
				select {
				case h, ok := <-reports:
					if !ok {
						break ready // the next pass sees the close
					}
					pending = append(pending, h)
				default:
					break ready
				}
			}
			if len(pending) >= a.batch || a.flushInt == 0 || a.activeLeases() == 0 {
				pending = a.flushReports(ctx, pending, a.curStream())
				flushC = nil
			} else if flushC == nil {
				rearm(flush, a.flushInt)
				flushC = flush.C
			}
		case <-flushNow:
			flushC = nil
			pending = a.flushReports(ctx, pending, a.curStream())
		case ack := <-acks:
			if ack.Seq != a.sent[0].seq {
				a.sentOn.close() // the stream lost sync
				break
			}
			// Rejected entries need no handling (their leases expired; the
			// jobs are already requeued).
			n := a.sent[0].n
			a.releaseAll(a.unacked[:n])
			rest := copy(a.unacked, a.unacked[n:])
			clear(a.unacked[rest:])
			a.unacked = a.unacked[:rest]
			a.sent = a.sent[:copy(a.sent, a.sent[1:])]
		case <-ackByC:
			if ackByC = nil; len(a.sent) > 0 && time.Since(a.sent[0].at) >= a.ackWait {
				a.sentOn.close() // the stream is wedged
			}
		case <-dead:
			a.redeliver(ctx)
		case <-ctx.Done():
			// Drain without delivering: the context owns the shutdown.
			if reports != nil {
				for range reports {
				}
			}
			return
		}
	}
}

// flushReports encodes the records still this worker's as one reports
// frame and sends it on bs, queued for its ack — or, bs nil or the write
// failing, POSTs the same frame to /v1/report with a short retry: if the
// server stays unreachable the leases expire and the jobs requeue
// elsewhere, which is safe. Rejected entries (leases that expired
// mid-flight) need no handling here — the server has already requeued
// those jobs, and only those. Returns the emptied buffer for reuse.
func (a *agent) flushReports(ctx context.Context, pending []*heldLease, bs *binStream) []*heldLease {
	if len(pending) == 0 {
		return pending[:0]
	}
	if len(a.sent) > 0 && bs != a.sentOn {
		a.redeliver(ctx) // the sent frames' stream died; the loop has yet to notice
	}
	// Deliver only entries whose leases this worker still holds under
	// the current registration: an entry that expired (or predates a
	// re-registration) was already requeued server-side, and its lease
	// number may since have been reissued to a different job — posting
	// it could settle the wrong lease.
	now := time.Now()
	a.mu.Lock()
	reports, timings := a.repBin[:0], a.repTimings[:0]
	for _, h := range pending {
		if !h.expired && !h.gone {
			reports = append(reports, h.resp)
			timings = append(timings, JobTiming{
				DwellUs: durationUs(h.dwell),
				ExecUs:  durationUs(h.exec),
				BufUs:   durationUs(now.Sub(h.recv) - h.dwell - h.exec),
			})
		}
	}
	a.mu.Unlock()
	a.repBin, a.repTimings = reports[:0], timings[:0]
	// No entries means everything in the buffer was stale.
	if len(reports) > 0 {
		a.repSeq++
		a.repEnc = appendReports(a.repEnc[:0], binReports{Seq: a.repSeq, Reports: reports, Timings: timings})
		// Prefer the stream when one is live: the frame's leases stay
		// held, and heartbeated, until its ack releases them.
		if bs != nil && bs.send(a.repEnc) {
			a.sentOn = bs
			a.sent = append(a.sent, sentFrame{seq: a.repSeq, n: len(pending), at: now})
			a.unacked = append(a.unacked, pending...)
			return pending[:0]
		}
		req := streamReq{Version: ProtocolVersion, Token: a.o.Token, WorkerID: a.workerID(), Frame: a.repEnc}
		for attempt := 0; attempt < 3 && ctx.Err() == nil; attempt++ {
			var ack frameResp
			status, err := a.post(ctx, "/v1/report", req, &ack, 10*time.Second)
			if err == nil {
				break // every entry settled: accepted, or harmlessly rejected as expired
			}
			if status >= 400 && status < 500 {
				break // deterministic rejection; the leases will expire into retries
			}
			select {
			case <-time.After(200 * time.Millisecond):
			case <-ctx.Done():
			}
		}
	}
	// Delivered or not, these leases are no longer this worker's to
	// heartbeat: delivered results are settled, and undelivered ones
	// must expire so the server requeues their jobs.
	a.releaseAll(pending)
	return pending[:0]
}

// redeliver settles every sent and unacked frame through /v1/report —
// their stream is gone, so which of them the server settled is unknown,
// and a double delivery is harmless: the server rejects the entries
// whose leases it already settled — and releases their leases.
func (a *agent) redeliver(ctx context.Context) {
	a.sent = a.sent[:0]
	a.unacked = a.flushReports(ctx, a.unacked, nil)
}

// releaseAll drops a whole flush's settled leases and recycles their
// records under one lock hold, and wakes the fetcher once — the
// per-entry release was a lock round trip per job at fleet batch sizes.
// Its callers are the records' last stages: the ack that trims unacked,
// and the fallback POST.
func (a *agent) releaseAll(pending []*heldLease) {
	a.mu.Lock()
	for _, h := range pending {
		a.releaseLocked(h.job.ID, h)
	}
	a.free = append(a.free, pending...)
	a.mu.Unlock()
	a.kickFetch()
}

// heartbeatLoop extends every lease this worker holds — queued,
// running, and completed-unflushed — at TTL/3 cadence.
func (a *agent) heartbeatLoop(ctx context.Context, stop, done chan struct{}) {
	defer close(done)
	interval := a.leaseTTL() / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var leases []uint64
	var enc []byte
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
			a.mu.Lock()
			leases = leases[:0]
			for id := range a.held {
				leases = append(leases, id)
			}
			a.mu.Unlock()
			if len(leases) == 0 {
				continue
			}
			// The beat is one frame carrying the previous beat's measured
			// RTT. Over a live stream it is fire-and-forget: it arms the
			// next RTT sample, and its ack applies asynchronously through
			// the reader (markExpired), closing the sample. A dead or
			// absent stream POSTs the same frame to /v1/heartbeat.
			bs := a.curStream()
			rtt := a.lastRTTUs.Load()
			if bs != nil {
				rtt = bs.rttUs.Load()
			}
			enc = appendHeartbeat(enc[:0], binHeartbeat{RttUs: rtt, Leases: leases})
			if bs != nil {
				bs.hbSentNs.Store(time.Since(bs.born).Nanoseconds())
				if bs.send(enc) {
					continue
				}
			}
			// Transport errors are ignored: a missed heartbeat only
			// narrows the lease's remaining TTL. This beat's RTT is
			// measured around the POST itself (monotonic time.Since).
			var ack frameResp
			hbStart := time.Now()
			if _, err := a.post(ctx, "/v1/heartbeat",
				streamReq{Version: ProtocolVersion, Token: a.o.Token, WorkerID: a.workerID(), Frame: enc},
				&ack, 5*time.Second); err != nil {
				continue
			}
			a.lastRTTUs.Store(time.Since(hbStart).Microseconds())
			// Leases the server reports expired are already requeued
			// elsewhere: cancel their running jobs so the slots free up,
			// and mark queued ones so the slots skip them on dequeue.
			if len(ack.Frame) > 0 && ack.Frame[0] == frameHeartbeatAck {
				if expired, err := decodeLeaseIDs(wire.NewReader(ack.Frame[1:])); err == nil {
					a.markExpired(expired)
				}
			}
		}
	}
}

// post sends one JSON request to the agent's server within timeout.
func (a *agent) post(ctx context.Context, path string, in, out interface{}, timeout time.Duration) (int, error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return postJSON(rctx, a.client, a.serverURL(), path, in, out)
}

// postJSON sends one JSON request and decodes the JSON reply. Non-2xx
// statuses decode the server's error message into the returned error.
func postJSON(ctx context.Context, client *http.Client, base, path string, in, out interface{}) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var we wireError
		_ = json.NewDecoder(resp.Body).Decode(&we)
		if we.Error == "" {
			we.Error = resp.Status
		}
		return resp.StatusCode, fmt.Errorf("remote: %s: %s", path, we.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("remote: %s: decoding reply: %w", path, err)
	}
	return resp.StatusCode, nil
}
