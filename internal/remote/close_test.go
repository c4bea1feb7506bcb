package remote

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
)

// TestClosedServerLetsGoOfTheRun pins what closeGrace promises: for
// three seconds after Close the listener still answers — a stream
// handshake gets 204, the run is over — and what answers is the server
// alone. The run it served — everything behind
// the control plane (the engine, every scheduler) and behind the
// settled tasks of its newest chunk (each points at its lane and the
// lane's trial table) — must be collectable as soon as Close returns.
// A process that runs experiment after experiment would otherwise carry
// as many finished runs as fit in the window, a heap whose size depends
// on how fast the runs go.
func TestClosedServerLetsGoOfTheRun(t *testing.T) {
	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	type run struct{ state [1 << 10]byte }
	freed := make(chan string, 2)
	pin := func(via string) *run {
		r := new(run)
		runtime.SetFinalizer(r, func(*run) { freed <- via })
		return r
	}
	settled := make(chan Outcome, 1)
	func() {
		byControl, byTask := pin("control plane"), pin("task chunk")
		srv.SetControl(struct {
			ControlPlane
			run *run
		}{run: byControl})
		srv.Submit(JobPayload{Trial: 1, To: 1}, func(o Outcome) {
			_ = byTask.state[0]
			settled <- o
		})
	}()
	srv.Close()
	if o := <-settled; !o.Failed {
		t.Fatalf("job pending at Close settled %+v, want Failed", o)
	}

	deadline := time.Now().Add(closeGrace - time.Second)
	for pending := map[string]bool{"control plane": true, "task chunk": true}; len(pending) > 0; {
		runtime.GC()
		select {
		case via := <-freed:
			delete(pending, via)
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("closed server still pins the run through %v", pending)
			}
		}
	}
	// All of it went while the server was still up, answering a stream
	// handshake that the run is over.
	if status, _ := streamLease(t, srv.URL(), "w1", binLeaseReq{Max: 1}); status != http.StatusNoContent {
		t.Fatalf("closed server answered a stream handshake %d inside the grace window, want 204", status)
	}
}

// TestCloseSettlesEveryJobOnce closes a server in the middle of a run:
// agents are settling report frames and heartbeating their leases
// (queued on the worker, running, finished and unflushed) while Close
// flushes the queue and the lease table. Every 50th job holds its slot
// until the test lets go, so some leases can only be answered by the
// flush, and their reports arrive after it. Every job must be answered
// exactly once, and the closed server's gauges must read empty.
func TestCloseSettlesEveryJobOnce(t *testing.T) {
	srv, err := NewServer(Options{LeaseTTL: 60 * time.Millisecond, Prefetch: 2})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 600
	var answers [jobs]atomic.Int32
	var failed atomic.Int64
	settled := make(chan struct{}, jobs)
	for i := 0; i < jobs; i++ {
		srv.Submit(JobPayload{Trial: i, Names: []string{"x"}, Vec: []float64{float64(i)}, To: 1}, func(o Outcome) {
			if answers[i].Add(1) == 1 && o.Failed {
				failed.Add(1)
			}
			settled <- struct{}{}
		})
	}
	hold := make(chan struct{})
	objective := func(ctx context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
		if int(cfg["x"])%50 == 49 {
			select {
			case <-hold:
			case <-ctx.Done():
			}
		}
		time.Sleep(time.Millisecond)
		return cfg["x"], nil, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var agents sync.WaitGroup
	for i := 0; i < 3; i++ {
		agents.Add(1)
		go func() {
			defer agents.Done()
			_ = ServeAgent(ctx, AgentOptions{
				Server: srv.URL(), Slots: 2,
				Resolve: func(string) (exec.Objective, error) { return objective, nil },
			})
		}()
	}
	deadline := time.Now().Add(20 * time.Second)
	for c := srv.Counters(); c.Accepted < jobs/6; c = srv.Counters() {
		// One snapshot reads the counters and the lease gauge together.
		if c.Granted != c.Accepted+c.Expired+c.Leased {
			t.Fatalf("%d granted, but %d accepted + %d expired + %d leased", c.Granted, c.Accepted, c.Expired, c.Leased)
		}
		if time.Now().After(deadline) {
			t.Fatalf("agents settled %d jobs in 20s", c.Accepted)
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < jobs; n++ {
		select {
		case <-settled:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d jobs answered after Close", n, jobs)
		}
	}
	close(hold)
	agents.Wait() // every agent heard the run is over and reported what it held
	select {
	case <-settled:
		t.Fatal("a job was answered twice")
	case <-time.After(50 * time.Millisecond):
	}
	for i := range answers {
		if n := answers[i].Load(); n != 1 {
			t.Fatalf("job %d answered %d times", i, n)
		}
	}
	c := srv.Counters()
	if c.Pending != 0 || c.Leased != 0 {
		t.Fatalf("closed server still counts %d pending and %d leased jobs", c.Pending, c.Leased)
	}
	if c.Submitted != jobs || c.Accepted+failed.Load() != jobs {
		t.Fatalf("%d accepted + %d failed of %d submitted, want %d", c.Accepted, failed.Load(), c.Submitted, jobs)
	}
}

// TestExpiriesAndCloseAnswerInLeaseOrder pins the order a lost lease's
// Failed reaches its scheduler: the leases one sweep expires, and the
// leases Close flushes, are answered in lease-ID order — the order they
// were granted in — not in the lease map's, so one sequence of calls
// hands the schedulers their failures in one order.
func TestExpiriesAndCloseAnswerInLeaseOrder(t *testing.T) {
	srv, err := NewServer(Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var order []int // sweepOnce and Close answer on the calling goroutine
	for k := 1; k <= 16; k++ {
		srv.Submit(JobPayload{Trial: k}, func(o Outcome) {
			if !o.Failed {
				t.Errorf("trial %d answered %+v", k, o)
			}
			order = append(order, k)
		})
	}
	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion})
	worker := reg["worker"].(string)
	inOrder := func(what string, from int) {
		t.Helper()
		if _, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 8, WaitMillis: 2000}); len(g.Grants) != 8 {
			t.Fatalf("granted %d of 8 jobs", len(g.Grants))
		}
		order = order[:0]
		if what == "expiry" {
			srv.sweepOnce(time.Now().Add(time.Hour))
		} else {
			srv.Close()
		}
		for i, k := range order {
			if k != from+i || len(order) != 8 {
				t.Fatalf("%s answered trials %v, want %d to %d in lease order", what, order, from, from+7)
			}
		}
	}
	inOrder("expiry", 1)
	inOrder("close", 9)
}
