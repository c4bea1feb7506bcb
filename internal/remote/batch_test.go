package remote

// Tests for the batched lease/report protocol: multi-grant polls capped
// by the server's BatchSize, batched reports settled with per-entry
// acceptance (a lease that expires mid-flight rejects only its own
// entry), duplicate batches rejected at the door, stale prefetched work
// purged on re-registration, and a full engine drive over a
// prefetching, batching agent with nothing lost.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// TestLeaseBatchGrantsUpToBatchSize proves one poll can move many jobs
// in one grants frame, that the server's BatchSize caps a greedier
// worker, and that a poll asking for fewer than one job gets one.
func TestLeaseBatchGrantsUpToBatchSize(t *testing.T) {
	srv, err := NewServer(Options{BatchSize: 3, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	outcomes := make(chan Outcome, 8)
	for i := 0; i < 5; i++ {
		srv.Submit(JobPayload{Trial: i, To: 2}, func(o Outcome) { outcomes <- o })
	}
	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "name": "batcher"})
	if got := reg["batch"]; got != float64(3) {
		t.Fatalf("registration advertised batch %v, want 3", got)
	}
	worker := reg["worker"].(string)

	// Asking for 8 yields min(8, BatchSize)=3 grants in one frame.
	if _, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 8, WaitMillis: 2000}); len(g.Grants) != 3 {
		t.Fatalf("batched poll granted %+v, want 3 grants", g)
	}
	if c := srv.Counters(); c.GrantFrames != 1 || c.Granted != 3 {
		t.Fatalf("batched poll: %d jobs in %d frames, want 3 in 1", c.Granted, c.GrantFrames)
	}

	// A poll asking for no job at all still gets one: a frame of one.
	if _, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 0, WaitMillis: 2000}); len(g.Grants) != 1 {
		t.Fatalf("poll with max 0 granted %+v, want 1 grant", g)
	}
	if c := srv.Counters(); c.GrantFrames != 2 || c.Granted != 4 {
		t.Fatalf("after the max-0 poll: %d jobs in %d frames, want 4 in 2", c.Granted, c.GrantFrames)
	}
}

// TestBatchReportExpiredLeaseRejectsOnlyThatEntry is the regression
// test for the lease-expiry sweep racing a batched report on the same
// lease: a batch whose first job's lease expired mid-flight must reject
// only that entry (its ack bit clear), settle the rest, and never
// double-settle the expired job. A heartbeat naming both leases hears
// that the first is gone.
func TestBatchReportExpiredLeaseRejectsOnlyThatEntry(t *testing.T) {
	srv, err := NewServer(Options{LeaseTTL: 150 * time.Millisecond, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	outcomes := make(chan Outcome, 4)
	for i := 0; i < 2; i++ {
		srv.Submit(JobPayload{Trial: i, To: 2}, func(o Outcome) { outcomes <- o })
	}
	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "name": "half-dead"})
	worker := reg["worker"].(string)
	_, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 2, WaitMillis: 2000})
	if len(g.Grants) != 2 {
		t.Fatalf("worker did not lease both jobs: %+v", g)
	}
	lease0, lease1 := g.Grants[0].Job.ID, g.Grants[1].Job.ID

	// Heartbeat only the second lease until the first expires: the
	// sweeper settles job 0 as Failed (requeued) while job 1 stays live.
	deadline := time.Now().Add(5 * time.Second)
	for srv.ExpiredLeases() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first lease never expired")
		}
		postFrame(t, srv.URL(), "/v1/heartbeat", "", worker, appendHeartbeat(nil, binHeartbeat{Leases: []uint64{lease1}}))
		time.Sleep(20 * time.Millisecond)
	}
	select {
	case o := <-outcomes:
		if !o.Failed {
			t.Fatalf("expired lease settled as %+v, want Failed", o)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("expired lease never settled its job")
	}

	beat := appendHeartbeat(nil, binHeartbeat{RttUs: 250, Leases: []uint64{lease0, lease1}})
	if status, ack := postFrame(t, srv.URL(), "/v1/heartbeat", "", worker, beat); status != http.StatusOK ||
		fmt.Sprint(ack) != fmt.Sprint([]uint64{lease0}) {
		t.Fatalf("heartbeat for both leases: %d %v, want only lease %d expired", status, ack, lease0)
	}

	// The worker, unaware, reports both jobs in one batch.
	status, ack := postFrame(t, srv.URL(), "/v1/report", "", worker, appendReports(nil, binReports{Seq: 3,
		Reports: []exec.BinResponse{{ID: lease0, Loss: 0.5}, {ID: lease1, Loss: 0.25}}}))
	if status != http.StatusOK {
		t.Fatalf("batched report refused outright: %d %v", status, ack)
	}
	if a, _ := ack.(binReportAck); a.Seq != 3 || fmt.Sprint(a.Accepted) != "[false true]" {
		t.Fatalf("report ack = %+v, want seq 3 accepting [false true]", ack)
	}
	// Job 1 settles exactly once, with its loss; job 0 never settles a
	// second time.
	select {
	case o := <-outcomes:
		if o.Failed || o.Err != "" || o.Loss != 0.25 {
			t.Fatalf("live entry settled wrong: %+v", o)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("accepted entry never settled its job")
	}
	select {
	case o := <-outcomes:
		t.Fatalf("expired entry settled twice: %+v", o)
	case <-time.After(200 * time.Millisecond):
	}
	if n := srv.Counters().BatchedReports; n != 2 {
		t.Fatalf("BatchedReports = %d, want 2", n)
	}
}

// TestBatchReportRejectsMalformedBatches pins the strict decoding at
// the HTTP door: a report carrying duplicated lease entries, no entries,
// no frame, a frame of the wrong type or the wrong version — and a
// heartbeat carrying a reports frame — is rejected whole with a 400,
// settling nothing.
func TestBatchReportRejectsMalformedBatches(t *testing.T) {
	srv, err := NewServer(Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	outcomes := make(chan Outcome, 1)
	srv.Submit(JobPayload{Trial: 1, To: 2}, func(o Outcome) { outcomes <- o })
	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion})
	worker := reg["worker"].(string)
	_, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 1, WaitMillis: 2000})
	if len(g.Grants) != 1 {
		t.Fatalf("worker got no lease: %+v", g)
	}
	id := g.Grants[0].Job.ID

	entry := exec.BinResponse{ID: id, Loss: 0.5}
	for _, tc := range []struct {
		name, path string
		frame      []byte
	}{
		{"duplicated lease", "/v1/report", appendReports(nil, binReports{Reports: []exec.BinResponse{entry, entry}})},
		{"no entries", "/v1/report", appendReports(nil, binReports{})},
		{"no frame", "/v1/report", nil},
		{"heartbeat frame", "/v1/report", appendHeartbeat(nil, binHeartbeat{Leases: []uint64{id}})},
		{"reports frame", "/v1/heartbeat", reportOne(id, 0.5)},
	} {
		if status, msg := postFrame(t, srv.URL(), tc.path, "", worker, tc.frame); status != http.StatusBadRequest {
			t.Fatalf("%s to %s: status %d (%v), want 400", tc.name, tc.path, status, msg)
		}
	}
	status, _ := rawPost(t, srv.URL(), "/v1/report", streamReq{Version: ProtocolVersion + 1, WorkerID: worker, Frame: reportOne(id, 0.5)})
	if status != http.StatusBadRequest {
		t.Fatalf("report of another version: status %d, want 400", status)
	}
	select {
	case o := <-outcomes:
		t.Fatalf("malformed batch settled a job: %+v", o)
	case <-time.After(100 * time.Millisecond):
	}
	// The job is still leased and a well-formed batch settles it.
	status, ack := postFrame(t, srv.URL(), "/v1/report", "", worker, reportOne(id, 0.5))
	if status != http.StatusOK || acceptedOne(ack) != true {
		t.Fatalf("well-formed batch after rejections failed: %d %v", status, ack)
	}
	if o := <-outcomes; o.Failed || o.Loss != 0.5 {
		t.Fatalf("job settled wrong: %+v", o)
	}
}

// TestReportedCheckpointMustBeJSON: a report whose checkpoint is not
// JSON is accepted — the lease is settled — but its outcome is a fatal
// error naming the trial, never a committed state: the next job of the
// trial, on any worker, or the journal's next snapshot would fail on it.
func TestReportedCheckpointMustBeJSON(t *testing.T) {
	srv, err := NewServer(Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	outcomes := make(chan Outcome, 1)
	srv.Submit(JobPayload{Trial: 7, To: 2}, func(o Outcome) { outcomes <- o })
	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion})
	worker := reg["worker"].(string)
	_, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 1, WaitMillis: 2000})
	if len(g.Grants) != 1 {
		t.Fatalf("worker got no lease: %+v", g)
	}
	frame := appendReports(nil, binReports{Reports: []exec.BinResponse{{ID: g.Grants[0].Job.ID, Loss: 0.5, State: []byte("{oops")}}})
	if status, ack := postFrame(t, srv.URL(), "/v1/report", "", worker, frame); status != http.StatusOK || acceptedOne(ack) != true {
		t.Fatalf("report: %d %v, want it accepted", status, ack)
	}
	if o := <-outcomes; !strings.Contains(o.Err, "trial 7") || o.State != nil {
		t.Fatalf("a non-JSON checkpoint settled as %+v, want an error naming trial 7 and no state", o)
	}
}

// TestReregistrationPurgesStalePrefetchedWork pins the server-restart
// semantics of the prefetch pipeline: when the stream handshake answers
// 410 (the server lost this worker's identity — it restarted), every
// lease the agent still holds belongs to the dead server generation.
// Queued prefetched jobs must be dropped, not executed, and their
// buffered reports must never be posted — a restarted server may
// reissue the same lease numbers to different jobs.
//
// The stub speaks the real handshake and frames: the first dial
// upgrades and grants three jobs, then drops the connection on the
// next poll, as a server does for a worker it no longer knows; the
// second dial is the restarted server's 410; later dials answer that
// the run is over.
func TestReregistrationPurgesStalePrefetchedWork(t *testing.T) {
	type stubState struct {
		mu        sync.Mutex
		dials     int
		reported  []uint64 // leases reported after the restart
		restarted bool
	}
	st := &stubState{}
	serveStream := func(conn net.Conn, br *bufio.Reader) {
		defer conn.Close()
		polls := 0
		for {
			body, err := wire.ReadFrame(br, nil)
			if err != nil {
				return
			}
			r := wire.NewReader(body[1:])
			var answer []byte
			switch body[0] {
			case frameLease:
				q, err := decodeLeaseReq(r)
				if polls++; err != nil || polls > 1 {
					return
				}
				// One batch of three jobs: one will run, two will sit in the
				// prefetch queue when the "restart" hits.
				g := binGrants{Seq: q.Seq, Tables: []binTable{{Params: []string{"momentum"}}}}
				for id := uint64(1); id <= 3; id++ {
					g.Grants = append(g.Grants, binGrant{
						Job: exec.BinRequest{ID: id, Trial: int(id), To: 2, Vec: []float64{0.5}}})
				}
				answer = appendGrants(nil, g)
			case frameReports:
				rb, err := decodeReports(r)
				if err != nil {
					return
				}
				accepted := make([]bool, len(rb.Reports))
				for i := range accepted {
					accepted[i] = true
				}
				answer = appendReportAck(nil, binReportAck{Seq: rb.Seq, Accepted: accepted})
			case frameHeartbeat:
				if _, err := decodeHeartbeat(r); err != nil {
					return
				}
				answer = appendHeartbeatAck(nil, nil)
			default:
				return
			}
			if _, err := conn.Write(framed(answer)); err != nil {
				return
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"v":%d,"worker":"w1","leaseTTLms":60000,"batch":3,"prefetch":4,"flushMs":20}`, ProtocolVersion)
	})
	mux.HandleFunc("/v1/stream", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		st.dials++
		dial := st.dials
		if dial == 2 {
			st.restarted = true
		}
		st.mu.Unlock()
		switch dial {
		case 1:
			// The handshake body must be consumed before the takeover:
			// what follows it on the connection is frames.
			var req streamReq
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Version != ProtocolVersion {
				t.Errorf("stream handshake %+v: %v", req, err)
			}
			conn, rw, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			_, _ = rw.WriteString(streamUpgrade)
			_ = rw.Flush()
			go serveStream(conn, rw.Reader)
		case 2:
			w.WriteHeader(http.StatusGone)
			_, _ = w.Write([]byte(`{"error":"unknown worker; register again"}`))
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})
	mux.HandleFunc("/v1/report", func(w http.ResponseWriter, r *http.Request) {
		var req streamReq
		_ = json.NewDecoder(r.Body).Decode(&req)
		v, err := decodeAnyFrame(req.Frame)
		rb, ok := v.(binReports)
		if err != nil || !ok {
			t.Errorf("/v1/report carried %T: %v", v, err)
			return
		}
		st.mu.Lock()
		if st.restarted {
			st.reported = append(st.reported, leasesOf(rb)...)
		}
		st.mu.Unlock()
		accepted := make([]bool, len(rb.Reports))
		for i := range accepted {
			accepted[i] = true
		}
		reply(w, frameResp{Version: ProtocolVersion, Frame: appendReportAck(nil, binReportAck{Seq: rb.Seq, Accepted: accepted})})
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		reply(w, frameResp{Version: ProtocolVersion, Frame: appendHeartbeatAck(nil, nil)})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: mux}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	var execMu sync.Mutex
	executed := make(map[int]int)
	// Trial 1 finishes quickly; its completion frees enough capacity for
	// the next poll, which meets the restart. Any later trial that reaches the
	// objective blocks until its job context is cancelled — so a stale
	// job the purge misses would run its full (5s) course, execute its
	// successor, and fail the assertions below.
	obj := func(ctx context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
		id, _ := exec.TrialIDFromContext(ctx)
		execMu.Lock()
		executed[id]++
		execMu.Unlock()
		if id == 1 {
			time.Sleep(50 * time.Millisecond)
			return pureObjective(ctx, cfg, from, to, state)
		}
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return pureObjective(ctx, cfg, from, to, state)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = ServeAgent(ctx, AgentOptions{
		Server:  "http://" + ln.Addr().String(),
		Slots:   1, // the stub's advert: batch 3, prefetch 4, flush 20 ms
		Resolve: func(string) (exec.Objective, error) { return obj, nil },
	})
	if err != nil {
		t.Fatalf("agent: %v", err)
	}
	execMu.Lock()
	defer execMu.Unlock()
	// Trial 2 may have been dequeued by the slot just before the restart
	// was noticed — the purge must then cancel it (it blocks until
	// cancelled). Trial 3 was still in the prefetch queue and must be
	// dropped on dequeue, never executed.
	if executed[1] != 1 {
		t.Fatalf("the first granted job never ran (executed %v): the restart was not exercised", executed)
	}
	if executed[3] != 0 {
		t.Fatalf("stale queued job executed after re-registration: %v", executed)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// No stale lease may be reported after the restart: the numbers
	// could since belong to different jobs.
	for _, id := range st.reported {
		t.Errorf("stale lease %d reported after re-registration", id)
	}
}

// TestDriveWithBinaryStreamAgent drives a real ASHA run through the
// full pipeline — batched grants, prefetch queue, batched report
// flushes — and checks nothing is lost, duplicated, or failed, and that
// the run's grants and reports traveled as frames.
func TestDriveWithBinaryStreamAgent(t *testing.T) {
	const maxJobs = 120
	srv, err := NewServer(Options{LeaseTTL: 10 * time.Second, BatchSize: 4, Prefetch: 8,
		FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(srv, 12)
	space := testSpace()
	sched := core.NewASHA(core.ASHAConfig{
		Space: space, RNG: xrand.New(17), Eta: 2, MinResource: 1, MaxResource: 16,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	agentDone := make(chan error, 1)
	go func() {
		agentDone <- ServeAgent(ctx, AgentOptions{
			Server: srv.URL(), Slots: 2,
			Resolve: func(string) (exec.Objective, error) { return pureObjective, nil },
		})
	}()
	run, err := backend.Drive(ctx, sched, be, backend.Options{MaxJobs: maxJobs})
	if err != nil {
		t.Fatalf("drive failed: %v", err)
	}
	if run.CompletedJobs != maxJobs || run.FailedJobs != 0 {
		t.Fatalf("completed %d / failed %d of %d jobs", run.CompletedJobs, run.FailedJobs, maxJobs)
	}
	if n := srv.ExpiredLeases(); n != 0 {
		t.Fatalf("%d leases expired during a healthy binary run", n)
	}
	if n := srv.Counters().GrantFrames; n == 0 {
		t.Fatal("no jobs traveled through binary grant frames")
	}
	if n := srv.Counters().BinReports; n == 0 {
		t.Fatal("no results traveled through binary report frames")
	}
	if err := <-agentDone; err != nil {
		t.Fatalf("agent: %v", err)
	}
}
