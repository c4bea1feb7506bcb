package remote

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
)

// recycleRig is one server, one agent and the jobs submitted to them,
// each job a trial of its own. Its objective answers with a loss the
// test can trace back to the job — the trial, the config value and the
// checkpoint the job was submitted with — so an answer that reached the
// wrong job, or a job that ran on another's vector or checkpoint, shows.
type recycleRig struct {
	t   *testing.T
	srv *Server

	mu       sync.Mutex
	answers  map[int][]Outcome // trial -> every answer it got
	blockers map[int]chan struct{}
	started  map[int]chan struct{}
	pending  sync.WaitGroup
	next     int
}

// recycleLoss is the loss trial's job must answer with: trial, its
// config value (trial+0.5) and its checkpoint (trial) summed.
func recycleLoss(trial int) float64 { return 3*float64(trial) + 0.5 }

func (r *recycleRig) objective(ctx context.Context, cfg map[string]float64, _, _ float64, state interface{}) (float64, interface{}, error) {
	trial, ok := exec.TrialIDFromContext(ctx)
	if !ok {
		return 0, nil, fmt.Errorf("no trial in the job's context")
	}
	f, _ := state.(float64)
	if f != float64(trial) {
		return 0, nil, fmt.Errorf("trial %d resumed from checkpoint %v", trial, state)
	}
	r.mu.Lock()
	block, started := r.blockers[trial], r.started[trial]
	r.mu.Unlock()
	if block != nil {
		close(started)
		<-block // trains on whatever the lease's fate: only the test ends it
	}
	return float64(trial) + cfg["x"] + f, float64(trial), nil
}

// submit queues n jobs and returns their trials.
func (r *recycleRig) submit(n int) []int {
	trials := make([]int, n)
	for i := range trials {
		r.mu.Lock()
		r.next++
		k := r.next
		r.mu.Unlock()
		trials[i] = k
		r.pending.Add(1)
		r.srv.Submit(JobPayload{
			Trial: k, Names: []string{"x"}, Vec: []float64{float64(k) + 0.5}, To: 1,
			State: []byte(strconv.Itoa(k)),
		}, func(o Outcome) {
			r.mu.Lock()
			r.answers[k] = append(r.answers[k], o)
			r.mu.Unlock()
			r.pending.Done()
		})
	}
	return trials
}

// blocker submits one job whose objective holds its slot until the
// returned release is called, calls then (if not nil), and waits until
// the job runs.
func (r *recycleRig) blocker(then func()) (trial int, release func()) {
	r.t.Helper()
	r.mu.Lock()
	k := r.next + 1
	block, started := make(chan struct{}), make(chan struct{})
	r.blockers[k], r.started[k] = block, started
	r.mu.Unlock()
	r.submit(1)
	if then != nil {
		then()
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		r.t.Fatalf("blocking trial %d never ran", k)
	}
	return k, func() { close(block) }
}

// answered waits until each trial has an answer and returns them.
func (r *recycleRig) answered(trials ...int) []Outcome {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.mu.Lock()
		out := make([]Outcome, 0, len(trials))
		for _, k := range trials {
			if len(r.answers[k]) > 0 {
				out = append(out, r.answers[k][0])
			}
		}
		r.mu.Unlock()
		if len(out) == len(trials) {
			return out
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("%d of trials %v answered", len(out), trials)
		}
		time.Sleep(time.Millisecond)
	}
}

// leases returns the live leases whose tasks match, by lease ID.
func (r *recycleRig) leases(match func(*task) bool) []uint64 {
	var ids []uint64
	r.srv.mu.Lock()
	for id, t := range r.srv.tab.leases {
		if match(t) {
			ids = append(ids, id)
		}
	}
	r.srv.mu.Unlock()
	return ids
}

// expire moves the deadline of every lease matching into the past and
// runs a sweep pass: the sweeper's own runs every TTL/4, minutes here.
func (r *recycleRig) expire(match func(*task) bool) {
	r.srv.mu.Lock()
	for _, t := range r.srv.tab.leases {
		if match(t) {
			t.deadline = time.Time{}
		}
	}
	r.srv.mu.Unlock()
	r.srv.sweepOnce(time.Now())
}

// killStreams drops every live stream connection from the server's
// side, with whatever frames and acks were in flight on it.
func (r *recycleRig) killStreams() {
	r.srv.mu.Lock()
	var conns []*streamConn
	for sc := range r.srv.streams {
		conns = append(conns, sc)
	}
	r.srv.mu.Unlock()
	for _, sc := range conns {
		sc.close()
	}
}

func (r *recycleRig) waitFor(what string, cond func() bool) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecycledRecordsAnswerTheirOwnJobs drives the paths that take a
// task or a worker's lease record out of play, on one server and one
// agent, while both recycle their records: lease expiry and a late
// report for the expired lease; a restart of the worker's registration
// after which the server grants again a lease number the worker still
// holds a stale running record of; report frames whose stream died
// before their ack, re-delivered through /v1/report; CancelPending; and
// Close racing the settles of a busy fleet. Every job must be answered
// exactly once, and every successful answer must be its own job's.
func TestRecycledRecordsAnswerTheirOwnJobs(t *testing.T) {
	// Heartbeats every TTL/3 would race the late report; the expiries
	// here are the test's, by deadline.
	srv, err := NewServer(Options{LeaseTTL: 10 * time.Minute, BatchSize: 4, Prefetch: 4, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := &recycleRig{t: t, srv: srv, answers: make(map[int][]Outcome),
		blockers: make(map[int]chan struct{}), started: make(map[int]chan struct{})}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	agentDone := make(chan error, 1)
	go func() {
		agentDone <- ServeAgent(ctx, AgentOptions{Server: srv.URL(), Slots: 3,
			Resolve: func(string) (exec.Objective, error) { return r.objective, nil }})
	}()

	// Churn, and streams dying under unacked report frames: the agent
	// re-delivers those through /v1/report, where the entries the stream
	// had settled are rejected. (A grants frame lost with a stream leaves
	// its leases to the restart below, which expires them.)
	r.submit(200)
	r.waitFor("a report frame re-delivered through /v1/report", func() bool {
		if srv.Counters().BatchedReports > 0 {
			return true
		}
		r.killStreams()
		r.submit(20)
		time.Sleep(2 * time.Millisecond)
		return false
	})

	// Expiry, and the late report for the expired lease: its task is
	// answered Failed and recycled before the worker's result arrives.
	late, release := r.blocker(nil)
	r.expire(func(t *task) bool { return t.payload.Trial == late })
	if o := r.answered(late)[0]; !o.Failed {
		t.Fatalf("expired trial %d answered %+v, want Failed", late, o)
	}
	rejected := srv.Counters().Rejected
	r.submit(40) // takes the expired task off the free list
	release()
	r.waitFor("the late report's rejection", func() bool { return srv.Counters().Rejected > rejected })

	// A restart of the worker's registration while trial stale runs:
	// the agent re-registers and marks every lease it holds expired, the
	// server expires them, and its lease number is granted again — to
	// trial fresh — while the stale record still occupies its slot.
	stale, releaseStale := r.blocker(nil)
	staleLease := r.leases(func(t *task) bool { return t.payload.Trial == stale })
	if len(staleLease) != 1 {
		t.Fatalf("trial %d holds leases %v", stale, staleLease)
	}
	srv.PauseExperiment("")
	srv.mu.Lock()
	var gone string
	for id := range srv.tab.workers {
		gone = id
	}
	delete(srv.tab.workers, gone)
	srv.mu.Unlock()
	r.killStreams()
	r.waitFor("the agent's re-registration", func() bool { return srv.Counters().Registered == 2 })
	r.expire(func(t *task) bool { return t.worker == gone })
	r.waitFor("the old registration's leases to expire", func() bool {
		return len(r.leases(func(t *task) bool { return t.worker == gone })) == 0
	})
	// CancelPending, on a queue the pause holds back.
	canceled := r.submit(30)
	if n := srv.CancelPending(""); n != 30 {
		t.Fatalf("CancelPending canceled %d of 30 queued jobs", n)
	}
	for _, o := range r.answered(canceled...) {
		if !o.Failed {
			t.Fatalf("canceled job answered %+v", o)
		}
	}
	srv.mu.Lock()
	srv.tab.nextLease = staleLease[0] - 1
	srv.mu.Unlock()
	fresh, releaseFresh := r.blocker(func() { srv.ResumeExperiment("") })
	if got := r.leases(func(t *task) bool { return t.payload.Trial == fresh }); len(got) != 1 || got[0] != staleLease[0] {
		t.Fatalf("trial %d holds leases %v, want the stale lease %d again", fresh, got, staleLease[0])
	}
	releaseStale() // the stale record winds down and is recycled
	mustSucceed := append([]int{fresh}, r.submit(60)...)
	releaseFresh()
	for i, o := range r.answered(mustSucceed...) {
		if k := mustSucceed[i]; o.Failed || o.Err != "" {
			t.Fatalf("trial %d answered %+v, want its result", k, o)
		}
	}

	// Close racing the settles of a busy fleet.
	accepted := srv.Counters().Accepted
	r.submit(300)
	r.waitFor("the fleet to be busy", func() bool { return srv.Counters().Accepted > accepted+20 })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	settled := make(chan struct{})
	go func() { r.pending.Wait(); close(settled) }()
	select {
	case <-settled:
	case <-time.After(10 * time.Second):
		t.Fatal("jobs left unanswered after Close")
	}
	if err := <-agentDone; err != nil {
		t.Fatalf("agent: %v", err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	for k := 1; k <= r.next; k++ {
		answers := r.answers[k]
		if len(answers) != 1 {
			t.Fatalf("trial %d answered %d times: %+v", k, len(answers), answers)
		}
		o := answers[0]
		if o.Err != "" {
			t.Fatalf("trial %d: %s", k, o.Err)
		}
		if o.Failed {
			continue
		}
		if o.Loss != recycleLoss(k) || string(o.State) != strconv.Itoa(k) {
			t.Fatalf("trial %d answered loss %v, checkpoint %s: want %v, %d", k, o.Loss, o.State, recycleLoss(k), k)
		}
	}
	if c := srv.Counters(); c.Expired == 0 || c.Rejected == 0 || c.Canceled != 30 || c.BatchedReports == 0 {
		t.Fatalf("counters %+v: expiries, rejected reports, 30 cancels and re-delivered reports were all expected", c)
	}
}
