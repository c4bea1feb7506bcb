package remote

// Tests for the observability plane: /metrics scrapes that reconcile
// exactly with the engine's run accounting (including across a crash
// and journal resume — no double counting), the token-scoped admin API
// (auth at the door, pause freezing lease grants, abort canceling
// queued work, drain answering workers "done"), the /v1/events NDJSON
// stream, and a native fuzz target for the admin request surface.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/xrand"
)

// scrapeProm GETs /metrics and parses the exposition into name{labels}
// -> value. The server answers scrapes through the closeGrace window,
// so a post-run scrape right after Drive returns still reconciles.
func scrapeProm(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	return obs.ParseProm(string(body))
}

// adminPost POSTs one admin command and decodes the JSON reply.
func adminPost(t *testing.T, base, token, cmd, body string) (int, map[string]interface{}) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/admin/"+cmd, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/admin/%s: %v", cmd, err)
	}
	defer resp.Body.Close()
	out := make(map[string]interface{})
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func obsScheduler(seed uint64) core.Scheduler {
	return core.NewASHA(core.ASHAConfig{
		Space: testSpace(), RNG: xrand.New(seed), Eta: 2, MinResource: 1, MaxResource: 16,
	})
}

// TestMetricsDuringFleetRun scrapes a live fleet run mid-flight and
// then reconciles the post-run scrape against the engine's own
// accounting: every granted lease is settled exactly once, as either
// an accepted report or an expiry — granted = accepted + expired,
// accepted = CompletedJobs, expired = FailedJobs. A doomed worker that
// leases one job and goes silent makes the expiry leg non-trivial.
func TestMetricsDuringFleetRun(t *testing.T) {
	const maxJobs = 40
	srv, err := NewServer(Options{LeaseTTL: 150 * time.Millisecond, Metrics: true, Events: true})
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(srv, 2)
	sched := obsScheduler(3)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The doomed worker: leases one job, then goes silent forever; its
	// lease must expire and show up in asha_leases_expired_total.
	doomed := make(chan struct{})
	go func() {
		defer close(doomed)
		_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "name": "doomed"})
		worker, _ := reg["worker"].(string)
		if worker == "" {
			return
		}
		streamLease(t, srv.URL(), worker, binLeaseReq{WaitMillis: 5000})
	}()

	agentDone := make(chan error, 1)
	go func() {
		<-doomed
		for srv.ExpiredLeases() == 0 && ctx.Err() == nil {
			time.Sleep(10 * time.Millisecond)
		}
		agentDone <- ServeAgent(ctx, AgentOptions{
			Server: srv.URL(), Name: "survivor", Slots: 2,
			Resolve: func(string) (exec.Objective, error) { return pureObjective, nil },
		})
	}()

	type driveOut struct {
		run *metrics.Run
		err error
	}
	done := make(chan driveOut, 1)
	go func() {
		run, err := backend.Drive(ctx, sched, be, backend.Options{MaxJobs: maxJobs})
		done <- driveOut{run, err}
	}()

	// Mid-run scrape: once the first lease is granted, every counter and
	// gauge family must already be present in the exposition.
	for {
		m := scrapeProm(t, srv.URL())
		if m["asha_leases_granted_total"] >= 1 {
			for _, name := range []string{
				"asha_jobs_submitted_total", "asha_leases_expired_total",
				"asha_reports_accepted_total", "asha_reports_rejected_total",
				"asha_jobs_canceled_total", "asha_expiry_sweeps_total",
				"asha_workers_registered_total", "asha_jobs_pending",
				"asha_leases_active", "asha_events_dropped_total",
				"asha_server_draining", "asha_lease_cap",
			} {
				if _, ok := m[name]; !ok {
					t.Fatalf("mid-run scrape is missing %s:\n%v", name, m)
				}
			}
			// The latency histogram families must be in the exposition from
			// the first grant on (their buckets may still be empty).
			for _, name := range []string{
				"asha_queue_wait_seconds", "asha_exec_seconds",
				"asha_report_settle_seconds", "asha_heartbeat_rtt_seconds",
			} {
				if _, ok := m[name+"_count"]; !ok {
					t.Fatalf("mid-run scrape is missing histogram %s:\n%v", name, m)
				}
				if _, ok := m[name+`_bucket{le="+Inf"}`]; !ok {
					t.Fatalf("mid-run scrape is missing %s's +Inf bucket", name)
				}
			}
			break
		}
		if ctx.Err() != nil {
			t.Fatal("no lease was ever granted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("drive failed: %v", out.err)
	}
	run := out.run
	if run.FailedJobs != 1 {
		t.Fatalf("failed jobs = %d, want exactly the doomed worker's expiry", run.FailedJobs)
	}

	// Post-run scrape (inside the closeGrace window): the counters must
	// reconcile exactly with the engine's run accounting.
	m := scrapeProm(t, srv.URL())
	granted := int(m["asha_leases_granted_total"])
	accepted := int(m["asha_reports_accepted_total"])
	expired := int(m["asha_leases_expired_total"])
	if granted != accepted+expired {
		t.Errorf("granted %d != accepted %d + expired %d: a lease settled twice or never", granted, accepted, expired)
	}
	if accepted != run.CompletedJobs {
		t.Errorf("accepted reports %d != completed jobs %d", accepted, run.CompletedJobs)
	}
	if expired != run.FailedJobs {
		t.Errorf("expired leases %d != failed jobs %d", expired, run.FailedJobs)
	}
	if m["asha_jobs_pending"] != 0 || m["asha_leases_active"] != 0 {
		t.Errorf("post-run gauges not drained: pending=%v active=%v",
			m["asha_jobs_pending"], m["asha_leases_active"])
	}
	// The latency plane reconciles too: every accepted settle observed
	// the exec histogram exactly once — whatever mix of report paths the
	// run used — so at quiescence exec_count == accepted. The queue-wait
	// histogram counts grants the same way.
	if got := int(m["asha_exec_seconds_count"]); got != accepted {
		t.Errorf("asha_exec_seconds_count %d != accepted reports %d: a settle path missed (or double-counted) the exec histogram", got, accepted)
	}
	if got := int(m["asha_queue_wait_seconds_count"]); got != granted {
		t.Errorf("asha_queue_wait_seconds_count %d != granted leases %d", got, granted)
	}
	// All workers in this run are current-generation, so every accepted
	// settle carried worker timings.
	if got := int(m["asha_report_settle_seconds_count"]); got != accepted {
		t.Errorf("asha_report_settle_seconds_count %d != accepted reports %d", got, accepted)
	}
	if err := <-agentDone; err != nil {
		t.Fatalf("survivor agent: %v", err)
	}
}

// TestMetricsResumeNoDoubleCounting kills a journaled fleet run
// mid-flight, resumes it on a fresh server, and checks the second
// server's accepted-report counter covers exactly the jobs completed
// after the crash: replayed completions must never be re-counted.
func TestMetricsResumeNoDoubleCounting(t *testing.T) {
	const maxJobs = 30
	path := filepath.Join(t.TempDir(), "fleet.journal")
	journal, err := state.Create(path, state.Meta{Experiment: "obs-resume", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	srv1, err := NewServer(Options{Metrics: true, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	be1 := NewBackend(srv1, 2)
	agentCtx, agentCancel := context.WithCancel(context.Background())
	defer agentCancel()
	go func() {
		_ = ServeAgent(agentCtx, AgentOptions{
			Server: srv1.URL(), Slots: 2, RegisterTimeout: 2 * time.Second,
			Resolve: func(string) (exec.Objective, error) { return pureObjective, nil },
		})
	}()

	// The "kill": cancel the drive after 8 completions. In-flight leases
	// die with the server; the journal holds their issues but no report.
	driveCtx, driveCancel := context.WithCancel(context.Background())
	defer driveCancel()
	completed := 0
	_, err = backend.Drive(driveCtx, obsScheduler(7), be1, backend.Options{
		MaxJobs: maxJobs, Journal: journal,
		OnResult: func(core.Result, core.Best, bool) {
			if completed++; completed == 8 {
				driveCancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("interrupted drive: %v", err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	rec, journal2, err := state.RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sched2 := obsScheduler(7)
	rs, err := backend.Replay(rec, sched2, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayed := rs.Run.CompletedJobs
	if replayed == 0 {
		t.Fatal("replay recovered no completed jobs; the kill landed before any report")
	}

	srv2, err := NewServer(Options{Metrics: true, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	be2 := NewBackend(srv2, 2)
	go func() {
		_ = ServeAgent(agentCtx, AgentOptions{
			Server: srv2.URL(), Slots: 2, RegisterTimeout: 2 * time.Second,
			Resolve: func(string) (exec.Objective, error) { return pureObjective, nil },
		})
	}()
	run2, err := backend.Drive(context.Background(), sched2, be2, backend.Options{
		MaxJobs: maxJobs, Journal: journal2, Resume: rs,
	})
	if err != nil {
		t.Fatalf("resumed drive: %v", err)
	}
	if err := journal2.Close(); err != nil {
		t.Fatal(err)
	}
	if run2.CompletedJobs <= replayed {
		t.Fatalf("resumed run completed %d jobs, no more than the %d replayed", run2.CompletedJobs, replayed)
	}

	// The resumed server's counters must cover exactly the post-crash
	// work: run2's totals include the replayed prefix, the scrape of the
	// second server must not.
	m := scrapeProm(t, srv2.URL())
	accepted := int(m["asha_reports_accepted_total"])
	granted := int(m["asha_leases_granted_total"])
	expired := int(m["asha_leases_expired_total"])
	if want := run2.CompletedJobs - replayed; accepted != want {
		t.Errorf("resumed server accepted %d reports, want %d (total %d - replayed %d): replayed work was double counted",
			accepted, want, run2.CompletedJobs, replayed)
	}
	if granted != accepted+expired {
		t.Errorf("resumed server: granted %d != accepted %d + expired %d", granted, accepted, expired)
	}
	if want := run2.FailedJobs - rs.Run.FailedJobs; expired != want {
		t.Errorf("resumed server expired %d leases, want %d", expired, want)
	}
}

// TestOnListenAnnouncesAttachedServer pins the one announce point: the
// server is announced from the first SetControl, once the control plane
// is stored, so whoever learns the URL reaches the run behind it — and
// never from NewServer, a detach, or a later attach.
func TestOnListenAnnouncesAttachedServer(t *testing.T) {
	var srv *Server
	var announced []ControlPlane
	srv, err := NewServer(Options{OnListen: func(url string) {
		if url != srv.URL() {
			t.Errorf("announced %s, server is at %s", url, srv.URL())
		}
		announced = append(announced, srv.controlPlane())
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if len(announced) != 0 {
		t.Fatal("server announced before a control plane was attached")
	}
	srv.SetControl(nil)
	if len(announced) != 0 {
		t.Fatal("a nil control plane announced the server")
	}
	cp := newFakeControl()
	srv.SetControl(cp)
	srv.SetControl(newFakeControl())
	if len(announced) != 1 || announced[0] != ControlPlane(cp) {
		t.Fatalf("announces saw control planes %v, want exactly one, the first attached", announced)
	}
}

// TestAdminAuthAndValidation pins the admin surface's rejection paths:
// the endpoints do not exist without a configured token, and with one,
// auth is checked before anything else.
func TestAdminAuthAndValidation(t *testing.T) {
	// No AdminToken: the admin surface must not be routable at all.
	bare, err := NewServer(Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if status, _ := adminPost(t, bare.URL(), "anything", "status", ""); status != http.StatusNotFound {
		t.Fatalf("admin endpoint without AdminToken: status %d, want 404", status)
	}

	srv, err := NewServer(Options{AdminToken: "right"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetControl(newFakeControl())
	if status, _ := adminPost(t, srv.URL(), "", "status", ""); status != http.StatusUnauthorized {
		t.Fatalf("missing token: status %d, want 401", status)
	}
	if status, _ := adminPost(t, srv.URL(), "wrong", "pause", ""); status != http.StatusUnauthorized {
		t.Fatalf("wrong token: status %d, want 401", status)
	}
	if status, _ := adminPost(t, srv.URL(), "right", "pause", `{"experiment":`); status != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want 400", status)
	}
	if status, _ := adminPost(t, srv.URL(), "right", "selfdestruct", ""); status != http.StatusNotFound {
		t.Fatalf("unknown command: status %d, want 404", status)
	}
	if status, _ := adminPost(t, srv.URL(), "right", "workers", `{"workers":0}`); status != http.StatusBadRequest {
		t.Fatalf("workers 0: status %d, want 400", status)
	}

	// status is read-only and also answers GET; mutating commands do not.
	req, _ := http.NewRequest(http.MethodGet, srv.URL()+"/v1/admin/status", nil)
	req.Header.Set("Authorization", "Bearer right")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st AdminStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !st.OK {
		t.Fatalf("GET status: %d %+v", resp.StatusCode, st)
	}
	req, _ = http.NewRequest(http.MethodGet, srv.URL()+"/v1/admin/pause", nil)
	req.Header.Set("Authorization", "Bearer right")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET pause: status %d, want 405", resp.StatusCode)
	}
}

// TestAdminRefusesBeforeControlPlane: until a run attaches its control
// plane, every command that acts on the run answers 503 and changes
// nothing — an abort acknowledged then would be lost — while status and
// drain, which are the server's own, answer as usual.
func TestAdminRefusesBeforeControlPlane(t *testing.T) {
	srv, err := NewServer(Options{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	outcomes := make(chan Outcome, 1)
	srv.Submit(JobPayload{Experiment: "exp-a", Trial: 1, From: 0, To: 2}, func(o Outcome) { outcomes <- o })
	for _, c := range []struct{ cmd, body string }{
		{"pause", `{"experiment":"exp-a"}`},
		{"resume", `{"experiment":"exp-a"}`},
		{"abort", `{"experiment":"exp-a"}`},
		{"workers", `{"workers":4}`},
		{"adopt", `{"experiment":"exp-a"}`},
		{"drop", `{"experiment":"exp-a"}`},
	} {
		if status, body := adminPost(t, srv.URL(), "tok", c.cmd, c.body); status != http.StatusServiceUnavailable {
			t.Errorf("%s before the control plane: status %d %v, want 503", c.cmd, status, body)
		}
	}
	if got := srv.PausedExperiments(); len(got) != 0 {
		t.Fatalf("a refused pause froze %v", got)
	}
	select {
	case o := <-outcomes:
		t.Fatalf("a refused abort settled the queued job: %+v", o)
	default:
	}
	for _, cmd := range []string{"status", "drain"} {
		if status, body := adminPost(t, srv.URL(), "tok", cmd, ""); status != http.StatusOK {
			t.Errorf("%s before the control plane: status %d %v, want 200", cmd, status, body)
		}
	}
	srv.SetControl(newFakeControl())
	if status, body := adminPost(t, srv.URL(), "tok", "abort", `{"experiment":"exp-a"}`); status != http.StatusOK || body["canceled"].(float64) != 1 {
		t.Fatalf("abort once attached: status %d %v, want 200 and 1 canceled", status, body)
	}
}

// TestAdminPauseFreezesLeaseGrants proves a paused experiment's queued
// jobs are withheld from lease grants while other experiments' jobs
// keep flowing, and that resume releases them.
func TestAdminPauseFreezesLeaseGrants(t *testing.T) {
	srv, err := NewServer(Options{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetControl(newFakeControl())
	outcomes := make(chan Outcome, 4)
	srv.Submit(JobPayload{Experiment: "exp-a", Trial: 1, Names: []string{"x"}, Vec: []float64{1}, From: 0, To: 2},
		func(o Outcome) { outcomes <- o })
	srv.Submit(JobPayload{Experiment: "exp-b", Trial: 2, Names: []string{"x"}, Vec: []float64{2}, From: 0, To: 2},
		func(o Outcome) { outcomes <- o })

	if status, _ := adminPost(t, srv.URL(), "tok", "pause", `{"experiment":"exp-a"}`); status != http.StatusOK {
		t.Fatalf("pause exp-a: status %d", status)
	}
	if got := srv.PausedExperiments(); len(got) != 1 || got[0] != "exp-a" {
		t.Fatalf("paused experiments = %v, want [exp-a]", got)
	}

	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "name": "w"})
	worker := reg["worker"].(string)
	lease := func(waitMs int64) []binGrant {
		_, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 1, WaitMillis: waitMs})
		return g.Grants
	}

	// The grant must skip the paused experiment's job.
	g := lease(2000)
	if len(g) == 0 {
		t.Fatal("no grant while exp-b had a queued job")
	}
	if trial := g[0].Job.Trial; trial != 2 {
		t.Fatalf("granted trial %d, want exp-b's trial 2", trial)
	}
	// Only exp-a's job remains: the queue is frozen for this worker.
	if g := lease(150); len(g) != 0 {
		t.Fatalf("paused experiment's job was granted: %+v", g)
	}

	if status, _ := adminPost(t, srv.URL(), "tok", "resume", `{"experiment":"exp-a"}`); status != http.StatusOK {
		t.Fatalf("resume exp-a: status %d", status)
	}
	g = lease(2000)
	if len(g) == 0 {
		t.Fatal("no grant after resume")
	}
	if trial := g[0].Job.Trial; trial != 1 {
		t.Fatalf("granted trial %d after resume, want exp-a's trial 1", trial)
	}
}

// TestAdminAbortCancelsPending proves abort settles the addressed
// experiment's queued jobs as Failed — and only that experiment's.
func TestAdminAbortCancelsPending(t *testing.T) {
	srv, err := NewServer(Options{Metrics: true, AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetControl(newFakeControl())
	outcomes := make(chan Outcome, 4)
	for i, exp := range []string{"exp-a", "exp-a", "exp-b"} {
		srv.Submit(JobPayload{Experiment: exp, Trial: i, From: 0, To: 2},
			func(o Outcome) { outcomes <- o })
	}

	status, body := adminPost(t, srv.URL(), "tok", "abort", `{"experiment":"exp-a"}`)
	if status != http.StatusOK || body["canceled"].(float64) != 2 {
		t.Fatalf("abort exp-a: status %d body %v, want 2 canceled", status, body)
	}
	for i := 0; i < 2; i++ {
		select {
		case o := <-outcomes:
			if !o.Failed {
				t.Fatalf("canceled job settled without Failed: %+v", o)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("canceled jobs never settled")
		}
	}
	m := scrapeProm(t, srv.URL())
	if m["asha_jobs_canceled_total"] != 2 || m["asha_jobs_pending"] != 1 {
		t.Fatalf("after abort: canceled=%v pending=%v, want 2 and 1",
			m["asha_jobs_canceled_total"], m["asha_jobs_pending"])
	}

	// An abort with an empty body addresses everything still queued.
	status, body = adminPost(t, srv.URL(), "tok", "abort", "")
	if status != http.StatusOK || body["canceled"].(float64) != 1 {
		t.Fatalf("abort all: status %d body %v, want 1 canceled", status, body)
	}
}

// TestAbortAfterGrantsSkipsConsumedQueue is a regression test: the
// grant path consumes the pending queue by nilling entries behind
// pendingHead instead of reslicing, and CancelPending used to walk the
// queue from index 0 — panicking on the consumed prefix as soon as an
// abort followed a grant.
func TestAbortAfterGrantsSkipsConsumedQueue(t *testing.T) {
	srv, err := NewServer(Options{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	outcomes := make(chan Outcome, 4)
	for i := 0; i < 3; i++ {
		srv.Submit(JobPayload{Experiment: "exp-a", Trial: i, From: 0, To: 2},
			func(o Outcome) { outcomes <- o })
	}
	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "name": "w"})
	worker := reg["worker"].(string)
	if _, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 1, WaitMillis: 2000}); len(g.Grants) == 0 {
		t.Fatal("no grant for the first queued job")
	}
	// The two still-queued jobs cancel; the leased one is untouched.
	if n := srv.CancelPending("exp-a"); n != 2 {
		t.Fatalf("CancelPending canceled %d jobs, want 2", n)
	}
	for i := 0; i < 2; i++ {
		select {
		case o := <-outcomes:
			if !o.Failed {
				t.Fatalf("canceled job settled without Failed: %+v", o)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("canceled jobs never settled")
		}
	}
}

// TestAdminDrainAnswersWorkersDone proves drain mode tells workers the
// run is over — a stream handshake gets 204 and an agent exits cleanly —
// while keeping queued jobs queued, and that lifting the drain hands the
// queue back out.
func TestAdminDrainAnswersWorkersDone(t *testing.T) {
	srv, err := NewServer(Options{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	outcomes := make(chan Outcome, 1)
	srv.Submit(JobPayload{Trial: 1, From: 0, To: 2}, func(o Outcome) { outcomes <- o })

	if status, _ := adminPost(t, srv.URL(), "tok", "drain", ""); status != http.StatusOK {
		t.Fatalf("drain: status %d", status)
	}
	_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion, "name": "w"})
	worker := reg["worker"].(string)
	if status, _ := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 1, WaitMillis: 1000}); status != http.StatusNoContent {
		t.Fatalf("draining stream handshake: status %d, want 204", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ServeAgent(ctx, AgentOptions{
		Server:  srv.URL(),
		Resolve: func(string) (exec.Objective, error) { return pureObjective, nil },
	}); err != nil {
		t.Fatalf("agent against a draining server: %v, want a clean exit", err)
	}
	select {
	case o := <-outcomes:
		t.Fatalf("draining settled the queued job: %+v", o)
	default:
	}

	if status, _ := adminPost(t, srv.URL(), "tok", "drain", `{"drain":false}`); status != http.StatusOK {
		t.Fatalf("drain off: status %d", status)
	}
	if _, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 1, WaitMillis: 2000}); len(g.Grants) != 1 {
		t.Fatalf("queued job not granted after the drain lifted: %+v", g)
	}
}

// TestEventsStreamFilters proves /v1/events streams NDJSON events and
// that the ?experiment= filter drops other experiments' events.
func TestEventsStreamFilters(t *testing.T) {
	srv, err := NewServer(Options{Events: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/v1/events?experiment=exp-a")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	// The handler subscribes before committing the response headers, so
	// once the GET has returned the stream is guaranteed these events:
	// publish one pair and close the bus to end the stream.
	bus := srv.EventBus()
	bus.Publish(obs.Event{Type: obs.EventIssued, Experiment: "exp-a", Trial: 1, Resource: 2})
	bus.Publish(obs.Event{Type: obs.EventIssued, Experiment: "exp-b", Trial: 2, Resource: 2})
	srv.Close()

	matched := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		e, err := obs.DecodeEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("stream line did not decode: %v (%s)", err, sc.Text())
		}
		if e.Experiment != "exp-a" {
			t.Fatalf("filtered stream leaked event for %q: %+v", e.Experiment, e)
		}
		matched++
	}
	if matched == 0 {
		t.Fatal("filtered stream delivered no exp-a events")
	}
}

// FuzzAdminRequest drives arbitrary command names, Authorization
// headers, and bodies through the admin handler: nothing may panic,
// nothing may pass without the exact token, every status must be one
// the API defines, and every reply body must be JSON. Run with:
//
//	go test ./internal/remote -fuzz FuzzAdminRequest -fuzztime 30s
func FuzzAdminRequest(f *testing.F) {
	f.Add("status", "Bearer fuzz-token", []byte(""))
	f.Add("pause", "Bearer fuzz-token", []byte(`{"experiment":"exp-a"}`))
	f.Add("resume", "Bearer fuzz-token", []byte(`{"experiment":""}`))
	f.Add("abort", "Bearer fuzz-token", []byte(`{"experiment":"exp-a"}`))
	f.Add("workers", "Bearer fuzz-token", []byte(`{"workers":4}`))
	f.Add("workers", "Bearer fuzz-token", []byte(`{"workers":-3}`))
	f.Add("drain", "Bearer fuzz-token", []byte(`{"drain":false}`))
	f.Add("status", "Bearer wrong", []byte(""))
	f.Add("pause", "", []byte(`{"experiment":`))
	f.Add("selfdestruct", "Bearer fuzz-token", []byte(`[]`))

	srv, err := NewServer(Options{Metrics: true, Events: true, AdminToken: "fuzz-token"})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	srv.SetControl(newFakeControl())
	h := srv.hs.Handler

	f.Fuzz(func(t *testing.T, cmd, auth string, body []byte) {
		if cmd == "." || cmd == ".." {
			// http.ServeMux answers a dot segment with its own 301 to the
			// cleaned path; the admin handler never sees the request.
			t.Skip()
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/admin/"+url.PathEscape(cmd), bytes.NewReader(body))
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		code := rec.Code
		if auth != "Bearer fuzz-token" && code != http.StatusUnauthorized {
			t.Fatalf("request with auth %q passed token scoping: status %d", auth, code)
		}
		switch code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnauthorized,
			http.StatusNotFound, http.StatusMethodNotAllowed:
		default:
			t.Fatalf("admin handler answered undefined status %d for %q", code, cmd)
		}
		var out map[string]interface{}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("admin reply is not a JSON object: %v (%s)", err, rec.Body.Bytes())
		}

		// Undo any state the command mutated so a long fuzz run's server
		// state (the paused set in particular) stays bounded.
		var mut struct {
			Experiment string `json:"experiment"`
		}
		_ = json.Unmarshal(body, &mut)
		srv.ResumeExperiment(mut.Experiment)
		srv.SetDraining(false)
		srv.SetMaxLeases(0)
	})
}

// Counters snapshots the server's counters and its queue and lease
// gauges, read in one hold of the server lock.
func (s *Server) Counters() CounterSnapshot {
	c, _, _ := s.snapshot()
	return c
}
