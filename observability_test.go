package asha

// End-to-end tests for the observability plane on the public API: the
// admin pause provably stops lease grants on a live fleet Tuner (the
// plane's acceptance criterion — what `ashactl pause` does), resume
// completes the run with the full budget, and a Manager fleet answers
// per-experiment admin status/pause/resume/abort while running.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/remote"
)

// fleetScrape GETs the embedded server's /metrics and parses it.
func fleetScrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseProm(string(body)), nil
}

// waitForExpiredLease polls /metrics until the server's lease-expiry
// counter ticks — tests wait on the observable they actually need
// instead of sleeping past an assumed TTL + sweep interval.
func waitForExpiredLease(base string, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(20 * time.Millisecond):
		}
		if m, err := fleetScrape(base); err == nil && m["asha_leases_expired_total"] >= 1 {
			return
		}
	}
}

// fleetAdmin POSTs one admin command to the embedded server.
func fleetAdmin(t *testing.T, base, token, cmd, body string) (int, map[string]interface{}) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/admin/"+cmd, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/admin/%s: %v", cmd, err)
	}
	defer resp.Body.Close()
	out := make(map[string]interface{})
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func fleetStatus(t *testing.T, base, token string) remote.AdminStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/admin/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /v1/admin/status: %v", err)
	}
	defer resp.Body.Close()
	var st remote.AdminStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding admin status: %v", err)
	}
	return st
}

// TestRemoteAdminPauseStopsGrants is the admin plane's acceptance test:
// pausing a live fleet run freezes the lease-granted counter dead while
// the worker keeps polling, status reports the run paused, adopt and
// drop are refused, and resume completes the full job budget — with the
// final scrape reconciling against the run's own accounting.
func TestRemoteAdminPauseStopsGrants(t *testing.T) {
	const maxJobs = 16
	const token = "admin-secret"
	urlCh := make(chan string, 1)
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	slow := func(ctx context.Context, cfg Config, from, to float64, state interface{}) (float64, interface{}, error) {
		time.Sleep(5 * time.Millisecond)
		return remoteParityObjective(ctx, cfg, from, to, state)
	}
	rem := Remote{
		Metrics: true, Events: true, AdminToken: token,
		LeaseTTL: 10 * time.Second,
		OnListen: func(url string) {
			urlCh <- url
			go func() {
				_ = ServeRemoteWorker(wctx, RemoteWorker{Server: url, Slots: 2, Objective: slow})
			}()
		},
	}
	space := NewSpace(LogUniform("lr", 1e-4, 1), Uniform("momentum", 0, 1))
	tuner := New(space, nil, ASHA{Eta: 2, MinResource: 1, MaxResource: 16},
		WithBackend(rem), WithWorkers(2), WithSeed(6), WithMaxJobs(maxJobs))

	type runOut struct {
		res *Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := tuner.Run(context.Background())
		done <- runOut{res, err}
	}()
	url := <-urlCh

	// Let the run get going: a few leases granted.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, err := fleetScrape(url); err == nil && m["asha_leases_granted_total"] >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never granted 3 leases")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if status, _ := fleetAdmin(t, url, token, "pause", ""); status != http.StatusOK {
		t.Fatalf("pause: status %d", status)
	}
	// In-flight jobs finish and report; after that the engine must be
	// parked: wait for the active-lease gauge to drain.
	for {
		m, err := fleetScrape(url)
		if err != nil {
			t.Fatalf("scrape during pause: %v", err)
		}
		if m["asha_leases_active"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight leases never drained after pause")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := fleetStatus(t, url, token)
	if len(st.Experiments) != 1 || st.Experiments[0].State != "paused" {
		t.Fatalf("status during pause = %+v, want one paused experiment", st.Experiments)
	}

	// The criterion: the granted counter holds perfectly still while the
	// worker keeps polling a paused server.
	m, err := fleetScrape(url)
	if err != nil {
		t.Fatal(err)
	}
	frozen := m["asha_leases_granted_total"]
	for i := 0; i < 10; i++ {
		time.Sleep(30 * time.Millisecond)
		m, err := fleetScrape(url)
		if err != nil {
			t.Fatalf("scrape %d during pause: %v", i, err)
		}
		if got := m["asha_leases_granted_total"]; got != frozen {
			t.Fatalf("paused run granted a lease: counter moved %v -> %v", frozen, got)
		}
		if m["asha_leases_active"] != 0 {
			t.Fatalf("paused run has an active lease")
		}
	}
	if frozen >= maxJobs {
		t.Fatalf("pause landed after the run finished (%v grants); nothing was proven", frozen)
	}

	// A Tuner's one experiment is unnamed and owned from the start: adopt
	// cannot name it and drop refuses it — a dropped lane would leave the
	// engine parked for good, and the run below would never complete.
	for cmd, body := range map[string]string{"drop": `{}`, "adopt": `{"experiment":"x"}`} {
		if status, out := fleetAdmin(t, url, token, cmd, body); status != http.StatusBadRequest {
			t.Fatalf("%s %s on a Tuner: status %d (%v), want 400", cmd, body, status, out)
		}
	}

	if status, _ := fleetAdmin(t, url, token, "resume", ""); status != http.StatusOK {
		t.Fatalf("resume: status %d", status)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("run failed after pause/resume: %v", out.err)
	}
	if out.res.CompletedJobs != maxJobs {
		t.Fatalf("completed %d jobs, want the full budget %d", out.res.CompletedJobs, maxJobs)
	}

	// Final scrape (inside the close grace window) reconciles with the
	// run: every granted lease was settled by an accepted report.
	m, err = fleetScrape(url)
	if err != nil {
		t.Fatal(err)
	}
	if m["asha_reports_accepted_total"] != float64(maxJobs) ||
		m["asha_leases_granted_total"] != m["asha_reports_accepted_total"]+m["asha_leases_expired_total"] {
		t.Fatalf("post-run scrape does not reconcile: granted=%v accepted=%v expired=%v completed=%d",
			m["asha_leases_granted_total"], m["asha_reports_accepted_total"],
			m["asha_leases_expired_total"], out.res.CompletedJobs)
	}
}

// TestManagerAdminControlsExperiments drives the admin plane against a
// Manager fleet: pause one named experiment while another runs, observe
// it in status and /metrics, resume it to completion, and abort the
// long-running one mid-flight.
func TestManagerAdminControlsExperiments(t *testing.T) {
	const token = "mgr-admin"
	urlCh := make(chan string, 1)
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	m := NewManager(
		WithManagerWorkers(4),
		WithManagerRemote(Remote{
			Metrics: true, Events: true, AdminToken: token,
			LeaseTTL: 10 * time.Second,
			OnListen: func(url string) {
				urlCh <- url
				go func() {
					_ = ServeRemoteWorker(wctx, RemoteWorker{
						Server: url, Slots: 4,
						Objectives: map[string]Objective{
							"alpha": managerObjective(time.Millisecond),
							"beta":  managerObjective(3 * time.Millisecond),
						},
					})
				}()
			},
		}),
	)
	if err := m.Add(Experiment{
		Name: "alpha", Space: managerSpace(),
		Algorithm: ASHA{Eta: 3, MinResource: 1, MaxResource: 27},
		Seed:      4, MaxJobs: 40,
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Experiment{
		Name: "beta", Space: managerSpace(),
		Algorithm: ASHA{Eta: 3, MinResource: 1, MaxResource: 27},
		Seed:      5, MaxJobs: 500, // far more than the test lets it finish
	}); err != nil {
		t.Fatal(err)
	}

	type runOut struct {
		results map[string]*Result
		err     error
	}
	done := make(chan runOut, 1)
	go func() {
		results, err := m.Run(context.Background())
		done <- runOut{results, err}
	}()
	url := <-urlCh

	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, err := fleetScrape(url); err == nil && m["asha_leases_granted_total"] >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never granted 2 leases")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if status, _ := fleetAdmin(t, url, token, "pause", `{"experiment":"alpha"}`); status != http.StatusOK {
		t.Fatalf("pause alpha: status %d", status)
	}
	st := fleetStatus(t, url, token)
	var alphaState string
	for _, e := range st.Experiments {
		if e.Experiment == "alpha" {
			alphaState = e.State
		}
	}
	if alphaState != "paused" {
		t.Fatalf("alpha state after pause = %q, want paused (status %+v)", alphaState, st.Experiments)
	}
	if len(st.Paused) != 1 || st.Paused[0] != "alpha" {
		t.Fatalf("server paused set = %v, want [alpha]", st.Paused)
	}
	mm, err := fleetScrape(url)
	if err != nil {
		t.Fatal(err)
	}
	if mm[`asha_experiment_paused{experiment="alpha"}`] != 1 {
		t.Fatalf("metrics do not show alpha paused: %v", mm)
	}

	if status, _ := fleetAdmin(t, url, token, "resume", `{"experiment":"alpha"}`); status != http.StatusOK {
		t.Fatalf("resume alpha: status %d", status)
	}
	// Pausing an unknown experiment must be refused by the manager's
	// control plane (and roll back the server-side freeze).
	if status, _ := fleetAdmin(t, url, token, "pause", `{"experiment":"gamma"}`); status != http.StatusBadRequest {
		t.Fatalf("pause of unknown experiment: status %d, want 400", status)
	}

	// Abort the long experiment; the run must then end with alpha's full
	// budget and without beta burning its 500-job budget.
	if status, _ := fleetAdmin(t, url, token, "abort", `{"experiment":"beta"}`); status != http.StatusOK {
		t.Fatalf("abort beta: status %d", status)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("manager run failed: %v", out.err)
	}
	alpha := out.results["alpha"]
	if alpha == nil || alpha.CompletedJobs != 40 {
		t.Fatalf("alpha result %+v, want 40 completed jobs", alpha)
	}
	if beta := out.results["beta"]; beta != nil && beta.CompletedJobs >= 500 {
		t.Fatalf("beta completed its full budget (%d jobs) despite the abort", beta.CompletedJobs)
	}
}

// TestManagerAdminDropRefences drops a live journaled experiment (the
// fencing half of failover: this node was declared dead and another
// shard adopted the experiment) and then re-adopts it. The drop must
// park the experiment dormant with its journal closed and late results
// discarded; the re-adoption must replay the journal into a fresh
// scheduler and run the experiment to its exact budget — the
// drop/adopt round trip neither loses nor double-counts work.
func TestManagerAdminDropRefences(t *testing.T) {
	const token = "mgr-admin"
	const jobs = 60
	urlCh := make(chan string, 1)
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	m := NewManager(
		WithManagerWorkers(2),
		WithManagerStateDir(t.TempDir()),
		WithManagerRemote(Remote{
			Metrics: true, AdminToken: token,
			LeaseTTL: 10 * time.Second,
			OnListen: func(url string) {
				urlCh <- url
				go func() {
					_ = ServeRemoteWorker(wctx, RemoteWorker{
						Server: url, Slots: 2,
						Objectives: map[string]Objective{
							"alpha": managerObjective(2 * time.Millisecond),
						},
					})
				}()
			},
		}),
	)
	if err := m.Add(Experiment{
		Name: "alpha", Space: managerSpace(),
		Algorithm: ASHA{Eta: 3, MinResource: 1, MaxResource: 27},
		Seed:      7, MaxJobs: jobs,
	}); err != nil {
		t.Fatal(err)
	}

	type runOut struct {
		results map[string]*Result
		err     error
	}
	done := make(chan runOut, 1)
	go func() {
		results, err := m.Run(context.Background())
		done <- runOut{results, err}
	}()
	url := <-urlCh

	// Let the run demonstrably progress, then fence it off mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := fleetStatus(t, url, token)
		if len(st.Experiments) == 1 && st.Experiments[0].Completed >= 5 {
			if st.Experiments[0].Completed >= jobs {
				t.Fatal("experiment finished before the drop; raise the worker delay")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("experiment never reached 5 completions")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status, _ := fleetAdmin(t, url, token, "drop", `{"experiment":"alpha"}`); status != http.StatusOK {
		t.Fatalf("drop alpha: status %d", status)
	}
	st := fleetStatus(t, url, token)
	if len(st.Experiments) != 1 || st.Experiments[0].State != "dormant" {
		t.Fatalf("state after drop = %+v, want dormant", st.Experiments)
	}
	// Dropping again is a no-op, not an error: fencing must be safe to
	// repeat (the self-fence fires every heartbeat while partitioned).
	if status, _ := fleetAdmin(t, url, token, "drop", `{"experiment":"alpha"}`); status != http.StatusOK {
		t.Fatalf("repeated drop: status %d", status)
	}
	// The run must still be alive (parked on the control channel), with
	// the dropped experiment frozen: no completions accrue.
	frozen := fleetStatus(t, url, token).Experiments[0].Completed
	time.Sleep(50 * time.Millisecond)
	if got := fleetStatus(t, url, token).Experiments[0].Completed; got != frozen {
		t.Fatalf("dropped experiment still completing jobs: %d -> %d", frozen, got)
	}

	// Re-adoption (ownership came back): replay the journal and finish.
	if status, _ := fleetAdmin(t, url, token, "adopt", `{"experiment":"alpha"}`); status != http.StatusOK {
		t.Fatalf("re-adopt alpha: status %d", status)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("manager run failed: %v", out.err)
	}
	alpha := out.results["alpha"]
	if alpha == nil || alpha.CompletedJobs != jobs {
		t.Fatalf("alpha result %+v, want exactly %d completed jobs after the drop/adopt round trip", alpha, jobs)
	}
}
