package remote

// Tests for the pipelined lease path: a frame carries what is ready — a
// poll asks for all of the worker's free room and is granted what is
// pending, a report frame takes every completion already queued — while
// an explicit BatchSize still caps both; and report frames sent and not
// yet acked survive the loss of their stream: they are re-delivered
// through /v1/report and every lease settles exactly once.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/wire"
)

// reporterRig is an agent assembled by hand around its reporter: the
// records of jobs it "ran" go straight into a.reports, its stream is one
// end of a pipe whose other end the test plays (or proxies to a real
// server), and its fallback POSTs to a URL of the test's.
type reporterRig struct {
	t    *testing.T
	a    *agent
	bs   *binStream
	far  net.Conn
	done chan struct{} // closed when reportLoop has returned
}

func newReporterRig(t *testing.T, url, worker string, batch int, ackWait time.Duration) *reporterRig {
	near, far := net.Pipe()
	a := &agent{
		o:       AgentOptions{Slots: 4, RegisterTimeout: 5 * time.Second},
		client:  &http.Client{},
		home:    url,
		worker:  worker,
		batch:   batch,
		ackWait: ackWait,
		held:    make(map[uint64]*heldLease),
		kick:    make(chan struct{}, 1),
		reports: make(chan *heldLease, 16),
		// One job forever in flight: a frame short of an explicit batch
		// waits for batch-mates instead of leaving because the agent idles.
		active: 1,
	}
	if batch > 0 {
		a.flushInt = time.Hour
	}
	a.server.Store(url)
	bs := &binStream{
		c: near, br: bufio.NewReader(near), bw: bufio.NewWriter(near), born: time.Now(),
		grants: make(chan streamBatch, 1), acks: make(chan binReportAck, ackWindow),
		tables: make(map[uint64]*clientTable), dead: make(chan struct{}),
		onExpired: a.markExpired,
	}
	a.setStream(bs)
	go bs.reader()
	t.Cleanup(func() { bs.close(); far.Close() })
	return &reporterRig{t: t, a: a, bs: bs, far: far, done: make(chan struct{})}
}

// complete queues finished jobs under the given leases, each reporting
// its lease number as its loss.
func (r *reporterRig) complete(leases ...uint64) {
	for _, id := range leases {
		h := &heldLease{
			done: true, recv: time.Now(),
			job:  exec.BinRequest{ID: id, Trial: int(id)},
			resp: exec.BinResponse{ID: id, Loss: float64(id)},
		}
		r.a.mu.Lock()
		r.a.held[id] = h
		r.a.mu.Unlock()
		r.a.reports <- h
	}
}

func (r *reporterRig) start(ctx context.Context) {
	go func() { defer close(r.done); r.a.reportLoop(ctx) }()
}

// stop shuts the pipeline down the way ServeAgent does and waits for the
// reporter, which returns only once every sent frame is settled.
func (r *reporterRig) stop() {
	r.t.Helper()
	close(r.a.reports)
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		r.t.Fatal("the reporter never settled its frames")
	}
}

// held is how many leases the agent still holds (and would heartbeat).
func (r *reporterRig) held() int {
	r.a.mu.Lock()
	defer r.a.mu.Unlock()
	return len(r.a.held)
}

// nextReports reads frames off the rig's far end until a reports frame
// and returns it decoded.
func (r *reporterRig) nextReports(br *bufio.Reader) binReports {
	r.t.Helper()
	for {
		_ = r.far.SetReadDeadline(time.Now().Add(10 * time.Second))
		body, err := wire.ReadFrame(br, nil)
		if err != nil {
			r.t.Fatalf("no reports frame: %v", err)
		}
		if body[0] != frameReports {
			continue
		}
		rb, err := decodeReports(wire.NewReader(body[1:]))
		if err != nil {
			r.t.Fatalf("reports frame: %v", err)
		}
		return rb
	}
}

func (r *reporterRig) ack(seq uint64, n int) {
	r.t.Helper()
	accepted := make([]bool, n)
	for i := range accepted {
		accepted[i] = true
	}
	if _, err := r.far.Write(framed(appendReportAck(nil, binReportAck{Seq: seq, Accepted: accepted}))); err != nil {
		r.t.Fatalf("writing ack: %v", err)
	}
}

func leasesOf(rb binReports) []uint64 {
	ids := make([]uint64, len(rb.Reports))
	for i, e := range rb.Reports {
		ids[i] = e.ID
	}
	return ids
}

// noFallback is a JSON endpoint a healthy stream must never reach.
func noFallback(t *testing.T) *httptest.Server {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("%s reached over JSON with the stream alive", r.URL.Path)
		http.Error(w, "unexpected", http.StatusInternalServerError)
	}))
	t.Cleanup(hs.Close)
	return hs
}

// TestSharedFramesCarryWhatIsReady pins the agent's half of the rule:
// completions already queued when the reporter looks leave together, a
// lone one leaves at once, an explicit batch of one still sends one entry
// per frame; and a poll asks for the whole free room.
func TestSharedFramesCarryWhatIsReady(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	t.Run("reports", func(t *testing.T) {
		rig := newReporterRig(t, noFallback(t).URL, "w1", 0, reportAckWait)
		br := bufio.NewReader(rig.far)
		rig.complete(1, 2, 3, 4) // a cluster: all four queued before the reporter runs
		rig.start(ctx)
		rb := rig.nextReports(br)
		if got := fmt.Sprint(leasesOf(rb)); got != "[1 2 3 4]" {
			t.Fatalf("four queued completions left as %s, want one frame [1 2 3 4]", got)
		}
		if n := rig.held(); n != 4 {
			t.Fatalf("%d leases held with their frame unacked, want 4", n)
		}
		rig.ack(rb.Seq, 4)
		rig.complete(5) // nothing to wait for: no Batch is set
		if got := fmt.Sprint(leasesOf(rig.nextReports(br))); got != "[5]" {
			t.Fatalf("a lone completion left as %s, want [5]", got)
		}
		rig.ack(rb.Seq+1, 1)
		rig.stop()
		if n := rig.held(); n != 0 {
			t.Fatalf("%d leases still held after every ack", n)
		}
	})

	t.Run("reports-batch-1", func(t *testing.T) {
		rig := newReporterRig(t, noFallback(t).URL, "w1", 1, reportAckWait)
		br := bufio.NewReader(rig.far)
		rig.complete(1, 2, 3, 4)
		rig.start(ctx)
		// Unacked as they come: four frames fit the ack window.
		var seqs []uint64
		for want := uint64(1); want <= 4; want++ {
			rb := rig.nextReports(br)
			if got := leasesOf(rb); len(got) != 1 || got[0] != want {
				t.Fatalf("frame %d carried %v, want one entry under an explicit batch of one", want, got)
			}
			seqs = append(seqs, rb.Seq)
		}
		for _, seq := range seqs {
			rig.ack(seq, 1)
		}
		rig.stop()
		if n := rig.held(); n != 0 {
			t.Fatalf("%d leases still held after every ack", n)
		}
	})

	t.Run("poll", func(t *testing.T) {
		rig := newReporterRig(t, noFallback(t).URL, "w1", 0, reportAckWait)
		rig.a.active = 0
		rig.a.jobs = make(chan *heldLease, 4)
		br := bufio.NewReader(rig.far)
		fetched := make(chan error, 1)
		go func() { fetched <- rig.a.fetchLoop(ctx) }()
		nextPoll := func() binLeaseReq {
			t.Helper()
			_ = rig.far.SetReadDeadline(time.Now().Add(10 * time.Second))
			body, err := wire.ReadFrame(br, nil)
			if err != nil || body[0] != frameLease {
				t.Fatalf("no lease poll: %v", err)
			}
			q, err := decodeLeaseReq(wire.NewReader(body[1:]))
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		q := nextPoll()
		if q.Max != 4 {
			t.Fatalf("an idle four-slot agent asked for %d jobs, want its 4 free slots", q.Max)
		}
		g := binGrants{Seq: q.Seq, Tables: []binTable{{Params: []string{"momentum"}}},
			Grants: []binGrant{{Job: exec.BinRequest{ID: 1, Trial: 1, To: 2, Vec: []float64{0.5}}}}}
		if _, err := rig.far.Write(framed(appendGrants(nil, g))); err != nil {
			t.Fatal(err)
		}
		if q = nextPoll(); q.Max != 3 {
			t.Fatalf("with one job queued the agent asked for %d, want the 3 slots left", q.Max)
		}
		if _, err := rig.far.Write(framed(appendGrants(nil, binGrants{Seq: q.Seq, Done: true}))); err != nil {
			t.Fatal(err)
		}
		if err := <-fetched; err != nil {
			t.Fatalf("fetchLoop: %v", err)
		}
	})
}

// gateObjective announces each job it starts and holds it until the gate
// opens; every job reports its trial number as its loss.
type gateObjective struct {
	started chan int
	open    chan struct{}
}

func (g *gateObjective) run(ctx context.Context, _ map[string]float64, _, _ float64, _ interface{}) (float64, interface{}, error) {
	id, _ := exec.TrialIDFromContext(ctx)
	g.started <- id
	select {
	case <-g.open:
	case <-ctx.Done():
	}
	return float64(id), nil, nil
}

func (g *gateObjective) await(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d jobs started: a free slot stayed empty with jobs pending", i, n)
		}
	}
}

// TestSharedFramesFillEveryFreeSlot is the server's half, over real
// agents: with no BatchSize a poll is granted min(asked, pending) in one
// frame, so every free slot of every agent fills while jobs are pending;
// with BatchSize 1 every frame, either way, carries one job.
func TestSharedFramesFillEveryFreeSlot(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	serve := func(srv *Server, obj exec.Objective, done chan error) {
		go func() {
			done <- ServeAgent(ctx, AgentOptions{
				Server: srv.URL(), Slots: 4,
				Resolve: func(string) (exec.Objective, error) { return obj, nil },
			})
		}()
	}
	settle := func(outcomes chan Outcome, n int) {
		t.Helper()
		seen := make(map[float64]bool)
		for i := 0; i < n; i++ {
			select {
			case o := <-outcomes:
				if o.Failed || o.Err != "" || seen[o.Loss] {
					t.Fatalf("job settled wrong or twice: %+v", o)
				}
				seen[o.Loss] = true
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d of %d jobs settled", i, n)
			}
		}
	}

	t.Run("unset", func(t *testing.T) {
		srv, err := NewServer(Options{LeaseTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		gate := &gateObjective{started: make(chan int, 16), open: make(chan struct{})}
		outcomes := make(chan Outcome, 16)
		submit := func(from, n int) {
			for i := from; i < from+n; i++ {
				srv.Submit(JobPayload{Trial: i, To: 2}, func(o Outcome) { outcomes <- o })
			}
		}
		agents := make(chan error, 2)
		submit(1, 8)
		serve(srv, gate.run, agents)
		gate.await(t, 4)
		if c := srv.Counters(); c.GrantFrames != 1 || c.Granted != 4 {
			t.Fatalf("four free slots, eight jobs pending: %d jobs in %d frames, want 4 in 1", c.Granted, c.GrantFrames)
		}
		// A second agent: the other four leave in its first frame.
		serve(srv, gate.run, agents)
		gate.await(t, 4)
		if c := srv.Counters(); c.GrantFrames != 2 || c.Granted != 8 {
			t.Fatalf("two agents, eight jobs: %d jobs in %d frames, want 8 in 2", c.Granted, c.GrantFrames)
		}
		// Three more than the slots hold, then every slot frees at once:
		// fewer jobs pending than slots free, and none may stay queued.
		submit(9, 3)
		close(gate.open)
		gate.await(t, 3)
		settle(outcomes, 11)
		c := srv.Counters()
		if c.Pending != 0 || c.Granted != 11 || c.BinReports != 11 || c.Accepted != 11 || c.Expired != 0 {
			t.Fatalf("after the run: %+v", c)
		}
		if c.GrantFrames > 2+3 || c.ReportFrames > 11 || c.ReportFrames < 2 {
			t.Fatalf("%d grant frames, %d report frames for 11 jobs over two agents", c.GrantFrames, c.ReportFrames)
		}
		srv.Close()
		for i := 0; i < 2; i++ {
			if err := <-agents; err != nil {
				t.Fatalf("agent: %v", err)
			}
		}
	})

	t.Run("batch-1", func(t *testing.T) {
		srv, err := NewServer(Options{LeaseTTL: time.Minute, BatchSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		gate := &gateObjective{started: make(chan int, 16), open: make(chan struct{})}
		outcomes := make(chan Outcome, 16)
		for i := 1; i <= 8; i++ {
			srv.Submit(JobPayload{Trial: i, To: 2}, func(o Outcome) { outcomes <- o })
		}
		agents := make(chan error, 1)
		serve(srv, gate.run, agents)
		gate.await(t, 4)
		close(gate.open) // the four finish together, four more are pending
		gate.await(t, 4)
		settle(outcomes, 8)
		c := srv.Counters()
		if c.GrantFrames != 8 || c.Granted != 8 || c.ReportFrames != 8 || c.BinReports != 8 {
			t.Fatalf("BatchSize 1 moved %d jobs in %d grant frames and %d results in %d report frames, want one per frame",
				c.Granted, c.GrantFrames, c.BinReports, c.ReportFrames)
		}
		srv.Close()
		if err := <-agents; err != nil {
			t.Fatalf("agent: %v", err)
		}
	})
}

// TestUnackedFramesSurviveTheStream has two report frames sent and
// unacked when the stream fails three ways — the connection dies, an ack
// arrives out of sequence, no ack arrives before the deadline — and each
// time every entry of both frames must be re-delivered through
// /v1/report, every lease settle exactly once, and none stay held.
func TestUnackedFramesSurviveTheStream(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The connection dies, against a real server that had settled the
	// first frame (its ack was in flight) and never saw the second.
	t.Run("killed", func(t *testing.T) {
		srv, err := NewServer(Options{LeaseTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		outcomes := make(chan Outcome, 8)
		for i := 1; i <= 4; i++ {
			srv.Submit(JobPayload{Trial: i, To: 2}, func(o Outcome) { outcomes <- o })
		}
		_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion})
		worker := reg["worker"].(string)
		_, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 4, WaitMillis: 2000})
		if len(g.Grants) != 4 {
			t.Fatalf("leased %+v, want 4 grants", g)
		}
		var ids []uint64
		for _, gr := range g.Grants {
			ids = append(ids, gr.Job.ID)
		}

		rig := newReporterRig(t, srv.URL(), worker, 2, reportAckWait)
		conn, sbr := streamDial(t, srv.URL(), worker)
		defer conn.Close()
		// The wire between them: the first reports frame goes through, the
		// second is lost with the connection; no ack comes back.
		sent, acked := make(chan int, 4), make(chan struct{}, 4)
		go func() {
			br := bufio.NewReader(rig.far)
			for n := 0; ; {
				body, err := wire.ReadFrame(br, nil)
				if err != nil {
					return
				}
				if body[0] == frameReports {
					n++
					sent <- n
					if n > 1 {
						continue // lost with the connection
					}
				}
				if _, err := conn.Write(framed(body)); err != nil {
					return
				}
			}
		}()
		go func() {
			for {
				body, err := wire.ReadFrame(sbr, nil)
				if err != nil {
					return
				}
				if body[0] == frameReportAck {
					acked <- struct{}{}
					continue
				}
				if _, err := rig.far.Write(framed(body)); err != nil {
					return
				}
			}
		}()
		rig.complete(ids...)
		rig.start(ctx)
		for i := 0; i < 2; i++ {
			select {
			case <-sent:
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d report frames left the agent", i)
			}
		}
		select {
		case <-acked: // the server has settled the first frame
		case <-time.After(10 * time.Second):
			t.Fatal("the server never acked the first frame")
		}
		if n := rig.held(); n != 4 {
			t.Fatalf("%d leases held with both frames unacked, want all 4 (still heartbeated)", n)
		}
		conn.Close()
		rig.far.Close()
		rig.stop()

		seen := make(map[float64]int)
		for i := 0; i < 4; i++ {
			select {
			case o := <-outcomes:
				if o.Failed || o.Err != "" {
					t.Fatalf("job settled as %+v", o)
				}
				seen[o.Loss]++
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d of 4 jobs settled", i)
			}
		}
		for _, id := range ids {
			if seen[float64(id)] != 1 {
				t.Errorf("lease %d settled %d times, want once", id, seen[float64(id)])
			}
		}
		select {
		case o := <-outcomes:
			t.Fatalf("a fifth outcome: %+v", o)
		default:
		}
		// Two entries settled by the frame, all four re-delivered: the two
		// the server already had are rejected, not counted again.
		c := srv.Counters()
		if c.BinReports != 2 || c.ReportFrames != 1 || c.BatchedReports != 4 || c.Accepted != 4 || c.Rejected != 2 || c.Expired != 0 || c.Leased != 0 {
			t.Fatalf("after the re-delivery: %+v", c)
		}
		if n := rig.held(); n != 0 {
			t.Fatalf("%d leases still held after the re-delivery", n)
		}
	})

	// The other two failures, against a stub that records what reaches
	// /v1/report: the agent itself must close the stream.
	for _, tc := range []struct {
		name    string
		ackWait time.Duration
		misack  bool
	}{
		{name: "out-of-order", ackWait: reportAckWait, misack: true},
		{name: "withheld", ackWait: 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var posted []uint64
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req streamReq
				err := json.NewDecoder(r.Body).Decode(&req)
				v, ferr := decodeAnyFrame(req.Frame)
				rb, ok := v.(binReports)
				if err != nil || ferr != nil || !ok || r.URL.Path != "/v1/report" {
					t.Errorf("%s carried %T: %v %v", r.URL.Path, v, err, ferr)
				}
				accepted := make([]bool, len(rb.Reports))
				for i := range accepted {
					accepted[i] = true
				}
				mu.Lock()
				posted = append(posted, leasesOf(rb)...)
				mu.Unlock()
				reply(w, frameResp{Version: ProtocolVersion, Frame: appendReportAck(nil, binReportAck{Seq: rb.Seq, Accepted: accepted})})
			}))
			defer hs.Close()
			rig := newReporterRig(t, hs.URL, "w1", 2, tc.ackWait)
			br := bufio.NewReader(rig.far)
			rig.complete(1, 2, 3, 4)
			rig.start(ctx)
			first, second := rig.nextReports(br), rig.nextReports(br)
			if len(first.Reports) != 2 || len(second.Reports) != 2 {
				t.Fatalf("frames of %d and %d entries, want 2 and 2", len(first.Reports), len(second.Reports))
			}
			if tc.misack {
				rig.ack(second.Seq, 2) // the head of the FIFO is the first frame
			}
			select {
			case <-rig.bs.dead:
			case <-time.After(10 * time.Second):
				t.Fatal("the agent never closed the stream")
			}
			rig.stop()
			mu.Lock()
			defer mu.Unlock()
			sort.Slice(posted, func(i, j int) bool { return posted[i] < posted[j] })
			if got := fmt.Sprint(posted); got != "[1 2 3 4]" {
				t.Fatalf("re-delivered %s over /v1/report, want every entry of both frames once", got)
			}
			if n := rig.held(); n != 0 {
				t.Fatalf("%d leases still held after the re-delivery", n)
			}
		})
	}
}

// TestFallbackSettlesLikeTheStream sends one reports frame to two
// servers holding the same leases: once on a stream, once POSTed to
// /v1/report. Both must answer the same acceptance bits under the same
// sequence number and settle the same outcomes and spans — a live lease
// with its loss and checkpoint, another with its error, a lease never
// granted rejected — and only the per-path counters may differ.
func TestFallbackSettlesLikeTheStream(t *testing.T) {
	type settled struct {
		ack      binReportAck
		outcomes map[int]Outcome
		spans    map[int]JobSpan
		counters CounterSnapshot
	}
	frame := appendReports(nil, binReports{Seq: 11,
		Reports: []exec.BinResponse{
			{ID: 1001, Loss: 0.25, State: []byte(`{"epoch":4}`)},
			{ID: 1002, IsErr: true, Err: "objective exploded"},
			{ID: 1777, Loss: 0.5}, // never granted
		},
		Timings: []JobTiming{{DwellUs: 10, ExecUs: 2000, BufUs: 5}, {DwellUs: 30, ExecUs: 900, BufUs: 2}, {ExecUs: 1}},
	})
	settle := func(t *testing.T, send func(base, worker string) binReportAck) settled {
		srv, err := NewServer(Options{Metrics: true, LeaseTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.mu.Lock()
		srv.tab.firstLease, srv.tab.nextLease = 1000, 1000 // both servers number their leases alike
		srv.mu.Unlock()
		var mu sync.Mutex
		got := settled{outcomes: make(map[int]Outcome), spans: make(map[int]JobSpan)}
		var wg sync.WaitGroup
		for trial := 1; trial <= 2; trial++ {
			wg.Add(1)
			srv.Submit(JobPayload{Experiment: "exp", Trial: trial, Rung: trial, To: 2}, func(o Outcome) {
				mu.Lock()
				got.outcomes[trial] = o
				mu.Unlock()
				wg.Done()
			})
		}
		_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion})
		worker := reg["worker"].(string)
		if _, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 2, WaitMillis: 2000}); len(g.Grants) != 2 ||
			g.Grants[0].Job.ID != 1001 || g.Grants[1].Job.ID != 1002 {
			t.Fatalf("leased %+v, want leases 1001 and 1002", g)
		}
		got.ack = send(srv.URL(), worker)
		wg.Wait()
		_, spans := traceSpans(t, srv.URL(), "?n=10")
		for _, sp := range spans {
			// The clock-dependent stages are the only fields that may differ.
			sp.GrantUnixMs, sp.SettleUnixMs, sp.QueueUs, sp.SettleUs = 0, 0, 0, 0
			got.spans[sp.Trial] = sp
		}
		got.counters = srv.Counters()
		return got
	}

	stream := settle(t, func(base, worker string) binReportAck {
		conn, br := streamDial(t, base, worker)
		defer conn.Close()
		sendFrame(t, conn, frame)
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		body, err := wire.ReadFrame(br, nil)
		if err != nil || body[0] != frameReportAck {
			t.Fatalf("stream answered %x: %v", body, err)
		}
		ack, err := decodeReportAck(wire.NewReader(body[1:]))
		if err != nil {
			t.Fatal(err)
		}
		return ack
	})
	posted := settle(t, func(base, worker string) binReportAck {
		status, ack := postFrame(t, base, "/v1/report", "", worker, frame)
		if status != http.StatusOK {
			t.Fatalf("POST /v1/report: %d %v", status, ack)
		}
		return ack.(binReportAck)
	})

	if got, want := fmt.Sprintf("%+v", posted.ack), fmt.Sprintf("%+v", stream.ack); got != want || want != "{Seq:11 Accepted:[true true false]}" {
		t.Fatalf("POSTed frame acked %s, the stream %s, want {Seq:11 Accepted:[true true false]}", got, want)
	}
	if got, want := fmt.Sprintf("%+v", posted.outcomes), fmt.Sprintf("%+v", stream.outcomes); got != want {
		t.Fatalf("POSTed frame settled\n %s\nthe stream\n %s", got, want)
	}
	if o := stream.outcomes[1]; o.Loss != 0.25 || string(o.State) != `{"epoch":4}` || stream.outcomes[2].Err != "objective exploded" {
		t.Fatalf("the stream settled %+v", stream.outcomes)
	}
	if got, want := fmt.Sprintf("%+v", posted.spans), fmt.Sprintf("%+v", stream.spans); got != want || len(stream.spans) != 2 {
		t.Fatalf("POSTed frame's spans\n %s\nthe stream's\n %s", got, want)
	}
	for _, c := range []*CounterSnapshot{&stream.counters, &posted.counters} {
		if c.Accepted != 2 || c.Rejected != 1 || c.Leased != 0 {
			t.Fatalf("after the frame: %+v", *c)
		}
	}
	if s, p := stream.counters, posted.counters; s.BinReports != 3 || s.ReportFrames != 1 || s.BatchedReports != 0 ||
		p.BinReports != 0 || p.ReportFrames != 0 || p.BatchedReports != 3 {
		t.Fatalf("per-path counters: stream %+v, POSTed %+v", s, p)
	}
}
