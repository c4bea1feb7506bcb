package asha

// The federation's one safety property in-process: a coordinator, two
// fleet-mode Managers as shards over one state dir, and workers entering
// through the coordinator. The owning shard's coordinator link is
// black-holed mid-run; the shard must fence before the survivor adopts,
// and the run must still end with every journal whole and every job
// counted once.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/state"
)

// blackHole proxies to the coordinator until hole is set, then answers
// nothing at all: requests hang until their caller gives up.
type blackHole struct {
	*httptest.Server
	hole    atomic.Bool
	release chan struct{}
}

func newBlackHole(t *testing.T, target string) *blackHole {
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	b := &blackHole{release: make(chan struct{})}
	b.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b.hole.Load() {
			select {
			case <-r.Context().Done():
			case <-b.release:
			}
			return
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { close(b.release); b.Close() })
	return b
}

// ownershipLog collects a shard's adopted/dropped events off its
// /v1/events stream.
type ownershipLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func watchOwnership(t *testing.T, base string) *ownershipLog {
	resp, err := http.Get(base + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	l := &ownershipLog{}
	go func() {
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var e obs.Event
			if dec.Decode(&e) != nil {
				return
			}
			if e.Type == obs.EventAdopted || e.Type == obs.EventExpDropped || e.Type == obs.EventDropped {
				l.mu.Lock()
				l.events = append(l.events, e)
				l.mu.Unlock()
			}
		}
	}()
	return l
}

// first is the first event of typ for experiment, if any.
func (l *ownershipLog) first(typ, experiment string) (obs.Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.events {
		if e.Type == typ && e.Experiment == experiment {
			return e, true
		}
	}
	return obs.Event{}, false
}

func coordShards(t *testing.T, coordURL, token string) remote.ShardsStatus {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, coordURL+"/v1/shards", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st remote.ShardsStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFederatedBlackHoleFence: black-hole the owning shard's coordinator
// link mid-run. Every victim's experiment_dropped on the zombie comes no
// later than its experiment_adopted on the survivor, every experiment
// completes exactly MaxJobs jobs, every journal recovers cleanly, and
// the survivor's lease ledger reconciles.
func TestFederatedBlackHoleFence(t *testing.T) {
	const (
		ttl     = 200 * time.Millisecond
		maxJobs = 150
		admin   = "fed-admin"
		token   = "fed-worker"
	)
	// Two experiments hash to each shard, so both shards are busy when
	// the link goes.
	names := []string{"team-a/cifar", "team-a/mnist", "team-b/lm", "deep"}
	coord, err := remote.NewCoordinator(remote.CoordinatorOptions{
		Shards: []string{"s1", "s2"}, Experiments: names, ShardTTL: ttl, AdminToken: admin, Token: token,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	dir := t.TempDir()

	type shard struct {
		id, url string
		link    *blackHole
		events  *ownershipLog
		cancel  context.CancelFunc
		done    chan map[string]*Result
	}
	shards := map[string]*shard{}
	for _, id := range []string{"s1", "s2"} {
		sh := &shard{id: id, link: newBlackHole(t, coord.URL()), done: make(chan map[string]*Result, 1)}
		urls := make(chan string, 1)
		m := NewManager(WithManagerWorkers(8), WithManagerStateDir(dir), WithManagerRemote(Remote{
			Token: token, AdminToken: admin, Events: true, EventBuffer: 1 << 14,
			ShardID: id, Coordinator: strings.TrimPrefix(sh.link.URL, "http://"),
			OnListen: func(u string) { urls <- u },
		}))
		for _, name := range names {
			if err := m.Add(Experiment{Name: name, Space: paritySpace(), Algorithm: parityAlgorithm(), Seed: 5, MaxJobs: maxJobs}); err != nil {
				t.Fatal(err)
			}
		}
		var ctx context.Context
		ctx, sh.cancel = context.WithCancel(context.Background())
		defer sh.cancel()
		go func() {
			res, err := m.Resume(ctx)
			if err != nil {
				t.Errorf("shard %s: %v", id, err)
			}
			sh.done <- res
		}()
		sh.url = <-urls
		sh.events = watchOwnership(t, sh.url)
		shards[id] = sh
	}

	// Both shards registered: now workers can be spread across them.
	var owner, survivor *shard
	var victims []string
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("both shards to register", func() bool {
		st := coordShards(t, coord.URL(), admin)
		for _, s := range st.Shards {
			if !s.Up {
				return false
			}
		}
		for _, s := range st.Shards {
			if len(s.Experiments) > len(victims) {
				owner, victims = shards[s.ID], s.Experiments
			}
		}
		return true
	})
	for _, sh := range shards {
		if sh != owner {
			survivor = sh
		}
	}

	workerCtx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var workers sync.WaitGroup
	for i := 0; i < 4; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			_ = ServeRemoteWorker(workerCtx, RemoteWorker{
				Server: coord.URL(), Token: token, Slots: 4, Objective: parityObjective(20 * time.Millisecond),
			})
		}()
	}

	waitFor("the owner to make progress", func() bool {
		done := 0
		for _, e := range fleetStatus(t, owner.url, admin).Experiments {
			done += e.Completed
		}
		return done >= 8
	})
	owner.link.hole.Store(true)

	waitFor("the zombie to drop and the survivor to adopt every victim", func() bool {
		for _, v := range victims {
			_, dropped := owner.events.first(obs.EventExpDropped, v)
			_, adopted := survivor.events.first(obs.EventAdopted, v)
			if !dropped || !adopted {
				return false
			}
		}
		return true
	})
	for _, sh := range shards {
		if _, lost := sh.events.first(obs.EventDropped, ""); lost {
			t.Fatalf("shard %s's event stream skipped events; raise EventBuffer", sh.id)
		}
	}
	for _, v := range victims {
		dropped, _ := owner.events.first(obs.EventExpDropped, v)
		if adopted, _ := survivor.events.first(obs.EventAdopted, v); dropped.TimeMs > adopted.TimeMs {
			t.Errorf("%s adopted by the survivor at %d ms, before the zombie dropped it at %d ms", v, adopted.TimeMs, dropped.TimeMs)
		}
	}

	var results map[string]*Result
	select {
	case results = <-survivor.done:
	case <-time.After(60 * time.Second):
		t.Fatal("the survivor never finished the run")
	}
	for _, name := range names {
		if r := results[name]; r == nil || r.CompletedJobs != maxJobs {
			t.Errorf("%s: result %+v, want %d completed jobs", name, r, maxJobs)
		}
		rec, journal, err := state.RecoverFile(filepath.Join(dir, journalFileName(name)))
		if err != nil {
			t.Fatalf("%s: recover: %v", name, err)
		}
		_ = journal.Close()
		reports := 0
		for _, r := range rec.Records {
			if r.Report != nil && !r.Report.Failed {
				reports++
			}
		}
		if rec.Truncated || reports != maxJobs {
			t.Errorf("%s: journal truncated=%v with %d successful reports, want clean with %d", name, rec.Truncated, reports, maxJobs)
		}
	}
	c := fleetStatus(t, survivor.url, admin).Counters
	if c.Granted != c.Accepted+c.Expired {
		t.Errorf("survivor's lease ledger: granted %d != accepted %d + expired %d", c.Granted, c.Accepted, c.Expired)
	}

	owner.cancel()
	<-owner.done
	stopWorkers()
	workers.Wait()
}

// TestTunerRefusesCoordinator: a Tuner's control plane cannot adopt, so
// a Remote naming a coordinator is refused by name instead of serving
// nothing forever.
func TestTunerRefusesCoordinator(t *testing.T) {
	tuner := New(NewSpace(Uniform("x", 0, 1)), nil, RandomSearch{MaxResource: 1},
		WithBackend(Remote{ShardID: "s1", Coordinator: "127.0.0.1:1"}), WithMaxJobs(1))
	if _, err := tuner.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "Remote.Coordinator") {
		t.Fatalf("a Tuner shard ran: %v", err)
	}
}
