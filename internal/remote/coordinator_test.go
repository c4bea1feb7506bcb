package remote

// Coordinator-tier tests: rendezvous assignment, the shard beat wire,
// worker routing redirects, kill-free failover via sweepOnce, and the
// agent's redirect-loop guard.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// TestRendezvousOwnerStability pins the two properties the federation
// relies on: the owner function is deterministic, and removing a shard
// moves only the experiments that shard owned.
func TestRendezvousOwnerStability(t *testing.T) {
	shards := []string{"shard-a", "shard-b", "shard-c"}
	exps := make([]string, 50)
	for i := range exps {
		exps[i] = fmt.Sprintf("tenant-%d/exp-%d", i%3, i)
	}
	owners := make(map[string]string, len(exps))
	for _, e := range exps {
		owners[e] = rendezvousOwner(e, shards)
		if got := rendezvousOwner(e, shards); got != owners[e] {
			t.Fatalf("rendezvousOwner(%q) is not deterministic: %q then %q", e, owners[e], got)
		}
		if owners[e] == "" {
			t.Fatalf("rendezvousOwner(%q) returned no owner", e)
		}
	}
	// Shard order must not matter.
	reversed := []string{"shard-c", "shard-b", "shard-a"}
	for _, e := range exps {
		if got := rendezvousOwner(e, reversed); got != owners[e] {
			t.Fatalf("owner of %q depends on shard order: %q vs %q", e, owners[e], got)
		}
	}
	// Removing shard-b moves only shard-b's experiments.
	survivors := []string{"shard-a", "shard-c"}
	moved := 0
	for _, e := range exps {
		after := rendezvousOwner(e, survivors)
		if owners[e] != "shard-b" && after != owners[e] {
			t.Fatalf("experiment %q moved from %q to %q although its owner survived", e, owners[e], after)
		}
		if owners[e] == "shard-b" {
			moved++
			if after == "shard-b" {
				t.Fatalf("experiment %q still owned by the removed shard", e)
			}
		}
	}
	if moved == 0 {
		t.Fatal("test needs at least one experiment owned by shard-b; pick different names")
	}
}

// beatShard sends one shard beat as shardLink.beat does and returns the
// reply's assignment and TTL.
func beatShard(ctx context.Context, coordURL, id, selfURL, token string) ([]string, time.Duration, error) {
	var br shardBeatResp
	_, err := postJSON(ctx, http.DefaultClient, coordURL, "/v1/shard/beat",
		shardBeatReq{Version: ProtocolVersion, Token: token, ID: id, URL: selfURL}, &br)
	return br.Experiments, time.Duration(br.TTLMillis) * time.Millisecond, err
}

// TestShardBeatWire covers the shard side of the wire: a beat returns
// the rendezvous assignment and the shard TTL, a second beat restates
// the assignment, an unknown shard, a bad token and a bad URL are each
// refused with their own status, and the retired register/heartbeat
// paths are gone.
func TestShardBeatWire(t *testing.T) {
	exps := []string{"team-a/cifar", "team-a/mnist", "team-b/lm", "solo"}
	c, err := NewCoordinator(CoordinatorOptions{
		Shards:      []string{"s1", "s2"},
		Experiments: exps,
		ShardTTL:    time.Hour, // the sweeper must not interfere
		AdminToken:  "fed-secret",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	assigned, ttl, err := beatShard(ctx, c.URL(), "s1", "http://127.0.0.1:1", "fed-secret")
	if err != nil {
		t.Fatal(err)
	}
	if ttl != time.Hour {
		t.Fatalf("beat reply names TTL %v, want the configured %v", ttl, time.Hour)
	}
	want := map[string]bool{}
	for _, e := range exps {
		if rendezvousOwner(e, []string{"s1", "s2"}) == "s1" {
			want[e] = true
		}
	}
	if len(assigned) != len(want) {
		t.Fatalf("s1 assigned %v, want the rendezvous slice %v", assigned, want)
	}
	for _, e := range assigned {
		if !want[e] {
			t.Fatalf("s1 was assigned %q which rendezvous-hashes to the other shard", e)
		}
	}
	// The next beat's reply restates the assignment — the fencing signal
	// a revived shard reconciles against.
	again, _, err := beatShard(ctx, c.URL(), "s1", "http://127.0.0.1:1", "fed-secret")
	if err != nil {
		t.Fatalf("second beat: %v", err)
	}
	if fmt.Sprint(again) != fmt.Sprint(assigned) {
		t.Fatalf("second beat restated assignment %v, want the first's %v", again, assigned)
	}

	// Unknown shard ID, bad token and bad URL are each refused.
	for _, tc := range []struct {
		what           string
		id, url, token string
		status         int
	}{
		{"an unknown shard ID", "rogue", "http://127.0.0.1:1", "fed-secret", http.StatusForbidden},
		{"a bad admin token", "s2", "http://127.0.0.1:1", "wrong", http.StatusUnauthorized},
		{"a bad shard URL", "s2", "not a url", "fed-secret", http.StatusBadRequest},
	} {
		var br shardBeatResp
		status, err := postJSON(ctx, http.DefaultClient, c.URL(), "/v1/shard/beat",
			shardBeatReq{Version: ProtocolVersion, Token: tc.token, ID: tc.id, URL: tc.url}, &br)
		if err == nil || status != tc.status {
			t.Errorf("beat with %s: status %d (%v), want %d", tc.what, status, err, tc.status)
		}
	}
	for _, path := range []string{"/v1/shard/register", "/v1/shard/heartbeat"} {
		var br shardBeatResp
		if status, _ := postJSON(ctx, http.DefaultClient, c.URL(), path,
			shardBeatReq{Version: ProtocolVersion, Token: "fed-secret", ID: "s2", URL: "http://127.0.0.1:1"}, &br); status != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, status)
		}
	}
}

// postWorkerRegister drives the coordinator's /v1/register the way an
// agent would and returns the decoded reply plus HTTP status.
func postWorkerRegister(t *testing.T, url string, req registerReq) (registerResp, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr registerResp
	_ = json.NewDecoder(resp.Body).Decode(&rr)
	return rr, resp.StatusCode
}

// TestCoordinatorWorkerRouting covers the worker-facing redirect logic:
// experiment-restricted workers go to the owning shard, unrestricted
// workers are load-balanced, tenant scopes are enforced at the
// coordinator, and a fleet with no live shards answers 503.
func TestCoordinatorWorkerRouting(t *testing.T) {
	exps := []string{"team-a/cifar", "team-a/mnist", "team-b/lm", "solo"}
	c, err := NewCoordinator(CoordinatorOptions{
		Shards:       []string{"s1", "s2"},
		Experiments:  exps,
		ShardTTL:     time.Hour,
		AdminToken:   "fed-secret",
		Token:        "fleet-token",
		TenantTokens: map[string]string{"team-a": "a-token"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// No shard registered yet: nothing can serve the worker.
	if _, status := postWorkerRegister(t, c.URL(), registerReq{Version: ProtocolVersion, Token: "fleet-token"}); status != http.StatusServiceUnavailable {
		t.Fatalf("register with no live shards: want 503, got %d", status)
	}

	urls := map[string]string{"s1": "http://shard-one.test", "s2": "http://shard-two.test"}
	for id, u := range urls {
		if _, _, err := beatShard(ctx, c.URL(), id, u, "fed-secret"); err != nil {
			t.Fatal(err)
		}
	}

	// An experiment-restricted worker is redirected to the owner.
	seen := map[string]int{}
	for _, e := range exps {
		owner := rendezvousOwner(e, []string{"s1", "s2"})
		rr, status := postWorkerRegister(t, c.URL(), registerReq{
			Version: ProtocolVersion, Token: "fleet-token", Experiments: []string{e},
		})
		if status != http.StatusOK {
			t.Fatalf("register for %q: status %d", e, status)
		}
		if rr.Redirect != urls[owner] {
			t.Fatalf("register for %q redirected to %q, want owner %s at %q", e, rr.Redirect, owner, urls[owner])
		}
		if rr.WorkerID != "" {
			t.Fatalf("coordinator handed out a worker ID %q; only shards do that", rr.WorkerID)
		}
		seen[rr.Redirect]++
	}

	// Unrestricted workers fill toward overall balance: restricted
	// registrations above counted against their shards, so after four
	// more unrestricted workers each shard carries exactly four.
	for i := 0; i < 4; i++ {
		rr, status := postWorkerRegister(t, c.URL(), registerReq{Version: ProtocolVersion, Token: "fleet-token"})
		if status != http.StatusOK {
			t.Fatalf("unrestricted register %d: status %d", i, status)
		}
		seen[rr.Redirect]++
	}
	if seen[urls["s1"]] != 4 || seen[urls["s2"]] != 4 {
		t.Fatalf("workers not balanced across shards: %v", seen)
	}

	// A worker whose experiments straddle both shards votes a tie; the
	// tie breaks by routing pressure, so a stream of such workers is
	// spread instead of herding onto one shard.
	straddle := map[string][]string{}
	for _, e := range exps {
		o := rendezvousOwner(e, []string{"s1", "s2"})
		straddle[o] = append(straddle[o], e)
	}
	if len(straddle["s1"]) == 0 || len(straddle["s2"]) == 0 {
		t.Fatalf("fixture degenerate: all experiments hash to one shard: %v", straddle)
	}
	pair := []string{straddle["s1"][0], straddle["s2"][0]}
	tied := map[string]int{}
	for i := 0; i < 4; i++ {
		rr, status := postWorkerRegister(t, c.URL(), registerReq{
			Version: ProtocolVersion, Token: "fleet-token", Experiments: pair,
		})
		if status != http.StatusOK {
			t.Fatalf("straddling register %d: status %d", i, status)
		}
		tied[rr.Redirect]++
	}
	if tied[urls["s1"]] != 2 || tied[urls["s2"]] != 2 {
		t.Fatalf("tied votes herded instead of spreading: %v", tied)
	}

	// Tenant scoping: team-a's token cannot request team-b's experiment,
	// and a bad token is refused outright.
	if _, status := postWorkerRegister(t, c.URL(), registerReq{
		Version: ProtocolVersion, Token: "a-token", Experiments: []string{"team-b/lm"},
	}); status != http.StatusForbidden {
		t.Fatalf("cross-tenant register: want 403, got %d", status)
	}
	if rr, status := postWorkerRegister(t, c.URL(), registerReq{
		Version: ProtocolVersion, Token: "a-token", Experiments: []string{"team-a/cifar"},
	}); status != http.StatusOK || rr.Redirect == "" {
		t.Fatalf("in-tenant register: status %d redirect %q", status, rr.Redirect)
	}
	if _, status := postWorkerRegister(t, c.URL(), registerReq{
		Version: ProtocolVersion, Token: "wrong",
	}); status != http.StatusUnauthorized {
		t.Fatalf("bad-token register: want 401, got %d", status)
	}
}

// TestCoordinatorFailover kills a shard (by silencing its beats) and
// asserts the sweep declares it down, reassigns its experiments to the
// survivor — whose next beat reply is where it learns them — publishes
// the shard_down/failover events, and re-routes workers to the survivor.
func TestCoordinatorFailover(t *testing.T) {
	exps := []string{"team-a/cifar", "team-a/mnist", "team-b/lm", "solo"}
	const survivorURL = "http://shard-one.test"

	const ttl = 250 * time.Millisecond
	c, err := NewCoordinator(CoordinatorOptions{
		Shards:      []string{"s1", "s2"},
		Experiments: exps,
		ShardTTL:    ttl,
		AdminToken:  "fed-secret",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	sub := c.bus.Subscribe()

	if _, _, err := beatShard(ctx, c.URL(), "s1", survivorURL, "fed-secret"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := beatShard(ctx, c.URL(), "s2", "http://127.0.0.1:1", "fed-secret"); err != nil {
		t.Fatal(err)
	}
	victims := map[string]bool{}
	for _, e := range exps {
		if rendezvousOwner(e, []string{"s1", "s2"}) == "s2" {
			victims[e] = true
		}
	}
	if len(victims) == 0 {
		t.Fatal("test needs s2 to own at least one experiment; pick different names")
	}

	// Silence s2 while keeping s1 alive, then let the sweeper notice.
	deadline := time.Now().Add(10 * time.Second)
	for c.Failovers() < len(victims) {
		if time.Now().After(deadline) {
			t.Fatalf("failover did not happen: %d/%d experiments reassigned", c.Failovers(), len(victims))
		}
		if _, _, err := beatShard(ctx, c.URL(), "s1", survivorURL, "fed-secret"); err != nil {
			t.Fatalf("survivor beat: %v", err)
		}
		time.Sleep(ttl / 5)
	}

	// The survivor's next beat reply names every experiment, victims
	// included: that reply is the whole of the failover a shard sees.
	owned, _, err := beatShard(ctx, c.URL(), "s1", survivorURL, "fed-secret")
	if err != nil {
		t.Fatalf("survivor beat: %v", err)
	}
	if len(owned) != len(exps) {
		t.Fatalf("survivor's beat reply lists %v, want all of %v", owned, exps)
	}

	// Workers asking for a victim experiment are now routed to s1.
	for e := range victims {
		rr, status := postWorkerRegister(t, c.URL(), registerReq{
			Version: ProtocolVersion, Experiments: []string{e},
		})
		if status != http.StatusOK || rr.Redirect != survivorURL {
			t.Fatalf("post-failover register for %q: status %d redirect %q, want %q", e, status, rr.Redirect, survivorURL)
		}
	}

	// The event stream carried the death and each failover.
	evDeadline := time.Now().Add(5 * time.Second)
	var sawDown bool
	failovers := map[string]bool{}
	for (!sawDown || len(failovers) < len(victims)) && time.Now().Before(evDeadline) {
		evCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		events, _, ok := sub.Next(evCtx)
		cancel()
		if !ok {
			continue
		}
		for _, e := range events {
			switch e.Type {
			case obs.EventShardDown:
				if e.Experiment == "s2" {
					sawDown = true
				}
			case obs.EventFailover:
				failovers[e.Experiment] = true
			}
		}
	}
	if !sawDown {
		t.Error("no shard_down event for s2")
	}
	for e := range victims {
		if !failovers[e] {
			t.Errorf("no failover event for %q", e)
		}
	}

	// The shard table reflects the new world.
	req, _ := http.NewRequest(http.MethodGet, c.URL()+"/v1/shards", nil)
	req.Header.Set("Authorization", "Bearer fed-secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ShardsStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, sh := range st.Shards {
		switch sh.ID {
		case "s1":
			if !sh.Up || len(sh.Experiments) != len(exps) {
				t.Errorf("survivor s1: up=%v experiments=%v, want all %d", sh.Up, sh.Experiments, len(exps))
			}
		case "s2":
			if sh.Up || len(sh.Experiments) != 0 {
				t.Errorf("dead s2: up=%v experiments=%v, want down and empty", sh.Up, sh.Experiments)
			}
		}
	}

	// Split-brain fence: s2 was declared dead by mistake (it is still
	// running) and beats again. The reply must restate its now-empty
	// assignment so it drops the experiments the survivor adopted —
	// without this signal both shards would schedule the same
	// experiments and append to the same journals.
	revived, _, err := beatShard(ctx, c.URL(), "s2", "http://127.0.0.1:1", "fed-secret")
	if err != nil {
		t.Fatalf("revived shard beat: %v", err)
	}
	if len(revived) != 0 {
		t.Errorf("revived s2's beat still assigns it %v; the failed-over experiments belong to s1", revived)
	}
}

// TestAgentRedirectLoop wires two stub servers that redirect to each
// other and asserts the agent gives up with a loop error instead of
// bouncing forever.
func TestAgentRedirectLoop(t *testing.T) {
	var aURL, bURL string
	mkStub := func(target *string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/register" {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(registerResp{Version: ProtocolVersion, Redirect: *target})
		}))
	}
	a := mkStub(&bURL)
	defer a.Close()
	b := mkStub(&aURL)
	defer b.Close()
	aURL, bURL = a.URL, b.URL

	err := ServeAgent(context.Background(), AgentOptions{
		Server:          a.URL,
		RegisterTimeout: 5 * time.Second,
		Resolve: func(string) (exec.Objective, error) {
			return nil, fmt.Errorf("never leases a job")
		},
	})
	if err == nil || !strings.Contains(err.Error(), "redirect loop") {
		t.Fatalf("want a redirect-loop error, got %v", err)
	}
}

// TestAgentRegisterDeadShardFallback covers the crash window between a
// shard dying and the coordinator failing it over: the coordinator
// still adverts the dead shard, so the agent's first redirect lands on
// a corpse. The agent must fall back to the coordinator and re-derive
// the route — by the next attempt the advert names a live shard — not
// burn its whole register window retrying the dead URL.
func TestAgentRegisterDeadShardFallback(t *testing.T) {
	live, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	live.SetDraining(true) // registered agents are told the run is over

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	var asks atomic.Int64
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/register" {
			http.NotFound(w, r)
			return
		}
		target := live.URL()
		if asks.Add(1) == 1 {
			target = deadURL
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(registerResp{Version: ProtocolVersion, Redirect: target})
	}))
	defer coord.Close()

	if err := ServeAgent(context.Background(), AgentOptions{
		Server:          coord.URL,
		RegisterTimeout: 10 * time.Second,
		Resolve: func(string) (exec.Objective, error) {
			return nil, fmt.Errorf("never leases a job")
		},
	}); err != nil {
		t.Fatalf("agent should settle on the live shard and exit cleanly, got %v", err)
	}
	if n := asks.Load(); n < 2 {
		t.Fatalf("agent asked the coordinator %d times; the dead advert should force a re-ask", n)
	}
}

// rendezvousFamilies are the shapes experiment names come in, 1 000
// names each: a prefix and a counter, team namespaces, dates, UUIDs.
func rendezvousFamilies() map[string][]string {
	fams := map[string][]string{}
	rng := xrand.New(42)
	day := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		fams["prefix-N"] = append(fams["prefix-N"], fmt.Sprintf("exp-%d", i))
		fams["team/x"] = append(fams["team/x"], fmt.Sprintf("team-%d/model-%d", i%7, i/7))
		fams["date"] = append(fams["date"], day.Add(time.Duration(i)*6*time.Hour).Format("sweep-2006-01-02T15"))
		fams["uuid"] = append(fams["uuid"], fmt.Sprintf("%08x-%04x-4%03x-%04x-%012x",
			rng.Uint64()>>32, rng.Uint64()>>48, rng.Uint64()>>52, rng.Uint64()>>48|0x8000, rng.Uint64()>>16))
	}
	return fams
}

func shardIDs(k int) []string {
	ids := make([]string, k)
	for i := range ids {
		ids[i] = fmt.Sprintf("shard-%d", i)
	}
	return ids
}

// owners tallies each shard's experiments.
func owners(names, shards []string) map[string]int {
	n := map[string]int{}
	for _, e := range names {
		n[rendezvousOwner(e, shards)]++
	}
	return n
}

// Every name family spreads evenly: at 4 shards no shard holds more than
// 1.3 times the mean.
func TestRendezvousBalance(t *testing.T) {
	shards := shardIDs(4)
	for fam, names := range rendezvousFamilies() {
		most := 0
		for _, n := range owners(names, shards) {
			most = max(most, n)
		}
		if mean := float64(len(names)) / float64(len(shards)); float64(most) > 1.3*mean {
			t.Errorf("%s: a shard owns %d experiments, %.2f times the mean %.0f", fam, most, float64(most)/mean, mean)
		}
	}
}

// Removing any one of 2–16 shards moves only the experiments it owned.
func TestRendezvousRemovalMovesOnlyItsExperiments(t *testing.T) {
	for fam, names := range rendezvousFamilies() {
		for k := 2; k <= 16; k++ {
			shards := shardIDs(k)
			for gone := range shards {
				survivors := append(append([]string(nil), shards[:gone]...), shards[gone+1:]...)
				for _, e := range names {
					before, after := rendezvousOwner(e, shards), rendezvousOwner(e, survivors)
					if before != shards[gone] && after != before {
						t.Fatalf("%s, %d shards less %s: %q moved from %s to %s", fam, k, shards[gone], e, before, after)
					}
				}
			}
		}
	}
}

// Adding a shard to k takes about 1/(k+1) of the experiments, only onto
// itself, and some from every shard there was.
func TestRendezvousAdditionTakesItsShare(t *testing.T) {
	for fam, names := range rendezvousFamilies() {
		for k := 2; k < 16; k++ {
			shards := shardIDs(k + 1)
			from := map[string]int{}
			moved := 0
			for _, e := range names {
				before, after := rendezvousOwner(e, shards[:k]), rendezvousOwner(e, shards)
				if before == after {
					continue
				}
				if after != shards[k] {
					t.Fatalf("%s, %d shards plus one: %q moved from %s to %s, not to the new shard", fam, k, e, before, after)
				}
				moved++
				from[before]++
			}
			if want := float64(len(names)) / float64(k+1); float64(moved) < 0.6*want || float64(moved) > 1.4*want {
				t.Errorf("%s, %d shards plus one: the new shard took %d experiments, want about %.0f", fam, k, moved, want)
			}
			if len(from) != k {
				t.Errorf("%s, %d shards plus one: the new shard took experiments from %d of the %d shards", fam, k, len(from), k)
			}
		}
	}
}
