package remote

// Tests for the lease protocol's failure model: auth and version
// rejection at the door, lease expiry feeding the scheduler retry path
// exactly once, late reports dropped, and worker elasticity (agents
// joining after jobs were queued).

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/searchspace"
	"repro/internal/wire"
	"repro/internal/xrand"
)

func testSpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "lr", Type: searchspace.LogUniform, Lo: 1e-4, Hi: 1},
		searchspace.Param{Name: "momentum", Type: searchspace.Uniform, Lo: 0, Hi: 1},
	)
}

// pureObjective is deterministic and keeps JSON-friendly state (the
// current loss), so trials may migrate between workers freely.
func pureObjective(_ context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
	loss := 3.0
	if s, ok := state.(float64); ok {
		loss = s
	}
	floor := 0.1 + cfg["momentum"]*0.2
	decay := 1.0
	for i := 0; i < int(to-from); i++ {
		decay *= 0.9
	}
	loss = floor + (loss-floor)*decay
	return loss, loss, nil
}

// rawPost is a minimal wire client for impersonating misbehaving or
// doomed workers.
func rawPost(t *testing.T, base, path string, body interface{}) (int, map[string]interface{}) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out := make(map[string]interface{})
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// postFrame POSTs one frame body to a fallback endpoint (/v1/report or
// /v1/heartbeat) as worker, presenting token. It returns the status and,
// on a 200, the decoded ack frame of the answer (a binReportAck or the
// []uint64 of a heartbeat ack); any other answer returns its error
// message.
func postFrame(t *testing.T, base, path, token, worker string, frame []byte) (int, interface{}) {
	t.Helper()
	status, body := rawPost(t, base, path, streamReq{Version: ProtocolVersion, Token: token, WorkerID: worker, Frame: frame})
	if status != http.StatusOK {
		return status, body["error"]
	}
	enc, _ := body["frame"].(string)
	ack, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		t.Fatalf("POST %s: ack frame: %v", path, err)
	}
	v, err := decodeAnyFrame(ack)
	if err != nil {
		t.Fatalf("POST %s: ack frame: %v", path, err)
	}
	return status, v
}

// reportOne is a reports frame settling one lease with a loss.
func reportOne(lease uint64, loss float64) []byte {
	return appendReports(nil, binReports{Reports: []exec.BinResponse{{ID: lease, Loss: loss}}})
}

// acceptedOne reads the single entry of a report ack.
func acceptedOne(ack interface{}) interface{} {
	a, _ := ack.(binReportAck)
	if len(a.Accepted) != 1 {
		return nil
	}
	return a.Accepted[0]
}

func TestRejectsBadTokenAndVersion(t *testing.T) {
	srv, err := NewServer(Options{Token: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	status, _ := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "token": "wrong"})
	if status != http.StatusUnauthorized {
		t.Fatalf("bad token: got status %d, want 401", status)
	}
	status, body := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion + 7, "token": "secret"})
	if status != http.StatusBadRequest {
		t.Fatalf("bad version: got status %d, want 400", status)
	}
	if body["error"] == nil {
		t.Fatalf("version rejection carried no error message: %v", body)
	}
	status, body = rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "token": "secret"})
	if status != http.StatusOK || body["worker"] == "" {
		t.Fatalf("valid registration refused: %d %v", status, body)
	}
}

// TestTenantOnlyCredentialsAuthenticate: with tenant credentials and no
// fleet-wide one, the unset fleet credential matches nothing. A
// stranger's worker token is refused by the server and the coordinator
// alike, and a stranger's admin token by the admin plane; each tenant's
// own credentials pass.
func TestTenantOnlyCredentialsAuthenticate(t *testing.T) {
	tenants := map[string]string{"team-a": "a-token"}
	srv, err := NewServer(Options{TenantTokens: tenants, TenantAdminTokens: map[string]string{"team-a": "a-admin"}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := NewCoordinator(CoordinatorOptions{Shards: []string{"s1"}, TenantTokens: tenants})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if status, _ := rawPost(t, srv.URL(), "/v1/register", registerReq{Version: ProtocolVersion, Token: "wrong"}); status != http.StatusUnauthorized {
		t.Fatalf("server: a stranger's worker token: status %d, want 401", status)
	}
	if _, status := postWorkerRegister(t, c.URL(), registerReq{Version: ProtocolVersion, Token: "wrong"}); status != http.StatusUnauthorized {
		t.Fatalf("coordinator: a stranger's worker token: status %d, want 401", status)
	}
	if status, _ := adminPost(t, srv.URL(), "wrong", "status", ""); status != http.StatusUnauthorized {
		t.Fatalf("a stranger's admin token: status %d, want 401", status)
	}
	if status, _ := rawPost(t, srv.URL(), "/v1/register", registerReq{Version: ProtocolVersion, Token: "a-token"}); status != http.StatusOK {
		t.Fatalf("team-a's worker token: status %d, want 200", status)
	}
	if status, _ := adminPost(t, srv.URL(), "a-admin", "status", ""); status != http.StatusOK {
		t.Fatalf("team-a's admin token: status %d, want 200", status)
	}
}

// TestOversizedBodiesRefused proves a POST body is bounded before it is
// decoded: a registration whose name runs past maxPostBody, or a report
// whose frame does, is refused 413 — and the refused registration
// leaves no worker behind, even on an open server.
func TestOversizedBodiesRefused(t *testing.T) {
	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	huge := strings.Repeat("n", maxPostBody)
	status, _ := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "name": huge})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("registration with a %d-byte name: status %d, want 413", len(huge), status)
	}
	if n := srv.Counters().Registered; n != 0 {
		t.Fatalf("an over-limit registration registered %d workers", n)
	}
	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion})
	worker := reg["worker"].(string)
	// A checkpoint just past what the limit's envelope slack absorbs.
	frame := appendReports(nil, binReports{Reports: []exec.BinResponse{{ID: 1, State: make([]byte, wire.MaxFrameBody+64<<10)}}})
	if status, _ := postFrame(t, srv.URL(), "/v1/report", "", worker, frame); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("report of a %d-byte frame: status %d, want 413", len(frame), status)
	}
}

func TestUnknownWorkerMustReregister(t *testing.T) {
	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	status, _ := streamLease(t, srv.URL(), "ghost", binLeaseReq{Max: 1})
	if status != http.StatusGone {
		t.Fatalf("unknown worker lease: got status %d, want 410", status)
	}
}

// TestHandshakeRefusesAnotherTokenScope proves a credential drives only
// the workers registered under its own scope: a tenant worker's stream
// handshake, report or heartbeat presented with the fleet token or
// another tenant's is refused 401 before it can lease, settle or extend
// anything, and its own token upgrades.
func TestHandshakeRefusesAnotherTokenScope(t *testing.T) {
	srv, err := NewServer(Options{Token: "fleet",
		TenantTokens: map[string]string{"team-a": "a-token", "team-b": "b-token"}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "token": "a-token"})
	worker := reg["worker"].(string)
	for _, token := range []string{"fleet", "b-token", "wrong"} {
		if status, _, _ := streamHandshake(t, srv.URL(), worker, token); status != http.StatusUnauthorized {
			t.Fatalf("team-a worker's handshake with token %q: status %d, want 401", token, status)
		}
		if status, _ := postFrame(t, srv.URL(), "/v1/report", token, worker, reportOne(1, 0.5)); status != http.StatusUnauthorized {
			t.Fatalf("team-a worker's report with token %q: status %d, want 401", token, status)
		}
		beat := appendHeartbeat(nil, binHeartbeat{Leases: []uint64{1}})
		if status, _ := postFrame(t, srv.URL(), "/v1/heartbeat", token, worker, beat); status != http.StatusUnauthorized {
			t.Fatalf("team-a worker's heartbeat with token %q: status %d, want 401", token, status)
		}
	}
	status, conn, _ := streamHandshake(t, srv.URL(), worker, "a-token")
	if status != http.StatusSwitchingProtocols {
		t.Fatalf("team-a worker's handshake with its own token: status %d, want 101", status)
	}
	conn.Close()
}

// TestLeaseExpiryRequeuesExactlyOnce pins the crash-tolerance contract
// at the protocol level: a worker that leases a job and goes silent has
// the job settle Failed exactly once after the TTL, and the dead
// worker's eventual late report is rejected instead of double-counting.
func TestLeaseExpiryRequeuesExactlyOnce(t *testing.T) {
	srv, err := NewServer(Options{LeaseTTL: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	outcomes := make(chan Outcome, 4)
	srv.Submit(JobPayload{Trial: 1, Names: []string{"x"}, Vec: []float64{1}, From: 0, To: 4},
		func(o Outcome) { outcomes <- o })

	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "name": "doomed"})
	worker := reg["worker"].(string)
	_, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 1, WaitMillis: 2000})
	if len(g.Grants) != 1 {
		t.Fatalf("doomed worker got no lease: %+v", g)
	}
	leaseID := g.Grants[0].Job.ID

	// The worker goes silent: no heartbeat, no report. The sweeper must
	// settle the job Failed once the TTL passes.
	select {
	case o := <-outcomes:
		if !o.Failed {
			t.Fatalf("job settled without the worker reporting: %+v", o)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expired lease never settled the job")
	}
	if n := srv.ExpiredLeases(); n != 1 {
		t.Fatalf("expired lease count = %d, want 1", n)
	}

	// A late report under the expired lease must be rejected.
	status, ack := postFrame(t, srv.URL(), "/v1/report", "", worker, reportOne(leaseID, 0.5))
	if status != http.StatusOK || acceptedOne(ack) != false {
		t.Fatalf("late report was not rejected: %d %v", status, ack)
	}
	select {
	case o := <-outcomes:
		t.Fatalf("job settled twice: %+v", o)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestDriveRetriesKilledWorkersJobOnSurvivor drives a real ASHA run over
// the remote backend while one worker leases a job and dies and a
// surviving agent joins only after the run has started: the lost job
// must be retried exactly once, every job must complete, and no job may
// execute twice.
func TestDriveRetriesKilledWorkersJobOnSurvivor(t *testing.T) {
	const maxJobs = 40
	srv, err := NewServer(Options{LeaseTTL: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(srv, 2)
	space := testSpace()
	sched := core.NewASHA(core.ASHAConfig{
		Space: space, RNG: xrand.New(3), Eta: 2, MinResource: 1, MaxResource: 16,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The doomed worker: leases one job, then goes silent forever.
	doomed := make(chan struct{})
	var doomedTrial int
	var doomedTo float64
	go func() {
		defer close(doomed)
		_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "name": "doomed"})
		worker, _ := reg["worker"].(string)
		if worker == "" {
			return
		}
		if _, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 1, WaitMillis: 5000}); len(g.Grants) > 0 {
			doomedTrial, doomedTo = g.Grants[0].Job.Trial, g.Grants[0].Job.To
		}
	}()

	// The survivor joins only after the doomed worker's lease has
	// already expired — well into the run — so the retried job is
	// waiting in the queue by the time it connects, and the whole job
	// budget (including the retry) lands on it. It records every job it
	// executes.
	var mu sync.Mutex
	executed := make(map[string]int)
	agentDone := make(chan error, 1)
	go func() {
		<-doomed
		for srv.ExpiredLeases() == 0 && ctx.Err() == nil {
			time.Sleep(10 * time.Millisecond)
		}
		obj := func(ctx context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
			id, _ := exec.TrialIDFromContext(ctx)
			mu.Lock()
			executed[fmt.Sprintf("%d@%g", id, to)]++
			mu.Unlock()
			return pureObjective(ctx, cfg, from, to, state)
		}
		agentDone <- ServeAgent(ctx, AgentOptions{
			Server: srv.URL(), Name: "survivor", Slots: 2,
			Resolve: func(string) (exec.Objective, error) { return obj, nil },
		})
	}()

	run, err := backend.Drive(ctx, sched, be, backend.Options{MaxJobs: maxJobs})
	if err != nil {
		t.Fatalf("drive failed: %v", err)
	}
	if run.FailedJobs != 1 {
		t.Fatalf("failed jobs = %d, want exactly the doomed worker's lease", run.FailedJobs)
	}
	if run.CompletedJobs != maxJobs-1 {
		// maxJobs issued includes the one failed launch; every other
		// launch must have completed.
		t.Fatalf("completed %d of %d issued jobs", run.CompletedJobs, maxJobs)
	}
	if n := srv.ExpiredLeases(); n != 1 {
		t.Fatalf("expired leases = %d, want 1", n)
	}

	<-doomed
	mu.Lock()
	defer mu.Unlock()
	for key, n := range executed {
		if n != 1 {
			t.Fatalf("job %s executed %d times, want exactly once", key, n)
		}
	}
	victim := fmt.Sprintf("%d@%g", doomedTrial, doomedTo)
	if executed[victim] != 1 {
		t.Fatalf("the killed worker's job %s was not retried on the survivor (executed %v)", victim, executed)
	}
	if err := <-agentDone; err != nil {
		t.Fatalf("survivor agent: %v", err)
	}
}

// TestElasticWorkersJoinQueuedRun proves jobs queue while no worker
// exists and flow the moment one connects.
func TestElasticWorkersJoinQueuedRun(t *testing.T) {
	srv, err := NewServer(Options{LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	outcomes := make(chan Outcome, 8)
	for i := 0; i < 4; i++ {
		srv.Submit(JobPayload{Trial: i, Names: []string{"momentum"}, Vec: []float64{0.5}, From: 0, To: 2},
			func(o Outcome) { outcomes <- o })
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agentDone := make(chan error, 1)
	time.AfterFunc(100*time.Millisecond, func() {
		agentDone <- ServeAgent(ctx, AgentOptions{
			Server: srv.URL(), Slots: 2,
			// Short server-loss tolerance so the post-Close exit below is
			// prompt even if a poll lands after the listener is gone.
			RegisterTimeout: 2 * time.Second,
			Resolve:         func(string) (exec.Objective, error) { return pureObjective, nil },
		})
	})
	for i := 0; i < 4; i++ {
		select {
		case o := <-outcomes:
			if o.Failed || o.Err != "" {
				t.Fatalf("queued job failed: %+v", o)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("queued jobs never reached the late worker")
		}
	}
	_ = srv.Close()
	select {
	case err := <-agentDone:
		if err != nil {
			t.Fatalf("agent exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent did not exit after server close")
	}
}

// TestLeaseRespectsExperimentRestriction proves a partially-configured
// worker never receives jobs of experiments it cannot train: the grant
// skips past queued jobs of other experiments.
func TestLeaseRespectsExperimentRestriction(t *testing.T) {
	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	outcomes := make(chan Outcome, 2)
	srv.Submit(JobPayload{Experiment: "alpha", Trial: 1}, func(o Outcome) { outcomes <- o })
	srv.Submit(JobPayload{Experiment: "beta", Trial: 2}, func(o Outcome) { outcomes <- o })

	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "name": "beta-only"})
	worker := reg["worker"].(string)
	beta := binLeaseReq{Max: 1, WaitMillis: 2000, Experiments: []string{"beta"}}
	_, g := streamLease(t, srv.URL(), worker, beta)
	if len(g.Grants) != 1 || len(g.Tables) != 1 {
		t.Fatalf("restricted worker got no lease: %+v", g)
	}
	if exp := g.Tables[0].Experiment; exp != "beta" || g.Grants[0].Job.Trial != 2 {
		t.Fatalf("restricted worker leased experiment %q trial %d, want beta's trial 2 (queued behind alpha)",
			exp, g.Grants[0].Job.Trial)
	}
	// A restriction matching nothing long-polls empty rather than
	// handing over an untrainable job.
	beta.WaitMillis = 50
	if _, g = streamLease(t, srv.URL(), worker, beta); g.Done || len(g.Grants) != 0 {
		t.Fatalf("restricted worker was handed an alpha job: %+v", g)
	}
}

// TestReportWithMispairedIDRejected is the remote twin of the
// subprocess parent's resp.ID check. A report entry names its lease by
// its response's own ID, so a response reaches no lease but the one it
// names: an entry naming a lease this worker was never granted settles
// nothing, and the job's own lease stays live for its real report.
func TestReportWithMispairedIDRejected(t *testing.T) {
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
	leaseID := g.Grants[0].Job.ID

	status, ack := postFrame(t, srv.URL(), "/v1/report", "", worker, reportOne(leaseID+7, 0.1))
	if status != http.StatusOK || acceptedOne(ack) != false {
		t.Fatalf("mispaired report was accepted: %d %v", status, ack)
	}
	select {
	case o := <-outcomes:
		t.Fatalf("mispaired report settled the job: %+v", o)
	case <-time.After(100 * time.Millisecond):
	}
	// The correctly-paired report still lands.
	status, ack = postFrame(t, srv.URL(), "/v1/report", "", worker, reportOne(leaseID, 0.1))
	if status != http.StatusOK || acceptedOne(ack) != true {
		t.Fatalf("correct report rejected: %d %v", status, ack)
	}
	if o := <-outcomes; o.Failed || o.Err != "" || o.Loss != 0.1 {
		t.Fatalf("job settled wrong: %+v", o)
	}
}

// TestAgentFailsFastOnBadToken proves a deterministic rejection is
// surfaced immediately instead of after the full 30s retry window.
func TestAgentFailsFastOnBadToken(t *testing.T) {
	srv, err := NewServer(Options{Token: "right"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	err = ServeAgent(context.Background(), AgentOptions{
		Server: srv.URL(), Token: "wrong",
		Resolve: func(string) (exec.Objective, error) { return pureObjective, nil },
	})
	if err == nil {
		t.Fatal("agent with a bad token registered")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bad-token rejection took %v; should fail fast", elapsed)
	}
}

// TestCloseFlushesOutstandingJobs guards the drain contract Close
// promises to the manager: queued and leased jobs settle Failed.
func TestCloseFlushesOutstandingJobs(t *testing.T) {
	srv, err := NewServer(Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make(chan Outcome, 4)
	for i := 0; i < 3; i++ {
		srv.Submit(JobPayload{Trial: i}, func(o Outcome) { outcomes <- o })
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case o := <-outcomes:
			if !o.Failed {
				t.Fatalf("flushed job settled as %+v, want Failed", o)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close did not flush outstanding jobs")
		}
	}
	// Submitting after Close settles immediately.
	srv.Submit(JobPayload{Trial: 9}, func(o Outcome) { outcomes <- o })
	if o := <-outcomes; !o.Failed {
		t.Fatalf("post-close submit settled as %+v, want Failed", o)
	}
}
