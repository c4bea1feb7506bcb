package remote

// Shard-link tests: a real Server with a fake ControlPlane attached is
// a federated shard whose link reaches a real Coordinator through a
// switchable proxy that passes, refuses or hangs each request — so
// boot adoption, retries, drops and the self-fence's timing are checked
// in-process, with the coordinator's own sweeper deciding death.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// linkTTL is the shard TTL these tests run at: beats every 66ms, a
// death sweep every 50ms.
const linkTTL = 200 * time.Millisecond

// Proxy modes.
const (
	linkPass int32 = iota
	linkRefuse
	linkHang
)

// flakyLink is a switchable proxy in front of the coordinator. It
// passes a request, refuses it (the connection closes under the request)
// or hangs it (no answer until the caller gives up), and remembers when
// the last request whose reply was delivered arrived — the last
// successful beat's send time, less the loopback hop. holdThenCut
// delays the next passed request on its way to the coordinator and
// holds its reply back, then switches modes: the delay puts the
// coordinator's receipt late, the hold would show a fence clock started
// at the reply rather than the send.
type flakyLink struct {
	target  string
	srv     *httptest.Server
	mode    atomic.Int32
	release chan struct{}

	mu         sync.Mutex
	lag        time.Duration // the next passed request waits this long before it is forwarded
	hold       time.Duration // and its reply this long, then mode becomes cut
	cut        int32
	passed     int
	lastPassed time.Time
}

func newFlakyLink(t *testing.T, target string) *flakyLink {
	l := &flakyLink{target: target, release: make(chan struct{})}
	l.srv = httptest.NewServer(http.HandlerFunc(l.serve))
	t.Cleanup(func() { close(l.release); l.srv.Close() })
	return l
}

func (l *flakyLink) serve(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	switch l.mode.Load() {
	case linkRefuse:
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
		return
	case linkHang:
		select {
		case <-r.Context().Done():
		case <-l.release:
		}
		return
	}
	l.mu.Lock()
	lag, hold := l.lag, l.hold
	l.mu.Unlock()
	time.Sleep(lag)
	req, _ := http.NewRequestWithContext(r.Context(), r.Method, l.target+r.URL.Path, r.Body)
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	time.Sleep(hold)
	// Switch before the reply leaves: the shard's next beat may follow it
	// at once.
	l.mu.Lock()
	l.passed++
	l.lastPassed = arrived
	if lag > 0 || hold > 0 {
		l.lag, l.hold = 0, 0
		l.mode.Store(l.cut)
	}
	l.mu.Unlock()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

func (l *flakyLink) holdThenCut(lag, hold time.Duration, mode int32) {
	l.mu.Lock()
	l.lag, l.hold, l.cut = lag, hold, mode
	l.mu.Unlock()
}

func (l *flakyLink) stats() (int, time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.passed, l.lastPassed
}

// controlCall is one Adopt or Drop the fake control plane saw.
type controlCall struct {
	op, exp string
	at      time.Time
}

// fakeControl is the scheduler side of a shard: a set of active
// experiments, a log of every Adopt and Drop, and adopts that fail on
// demand. Status, pause, resume, abort and workers succeed and do
// nothing, so the admin plane of a bare server runs against it too.
type fakeControl struct {
	mu        sync.Mutex
	active    map[string]bool
	failAdopt map[string]int // adopts to fail before one succeeds
	log       []controlCall
}

func newFakeControl() *fakeControl {
	return &fakeControl{active: map[string]bool{}, failAdopt: map[string]int{}}
}

func (f *fakeControl) Status() (Status, error) { return Status{}, nil }
func (f *fakeControl) Pause(string) error      { return nil }
func (f *fakeControl) Resume(string) error     { return nil }
func (f *fakeControl) Abort(string) error      { return nil }
func (f *fakeControl) SetWorkers(int) error    { return nil }

func (f *fakeControl) Adopt(e string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = append(f.log, controlCall{"adopt", e, time.Now()})
	switch {
	case f.failAdopt[e] > 0:
		f.failAdopt[e]--
		return errors.New("journal busy")
	case f.active[e]:
		return fmt.Errorf("%q is %w", e, ErrAlreadyActive)
	}
	f.active[e] = true
	return nil
}

func (f *fakeControl) Drop(e string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = append(f.log, controlCall{"drop", e, time.Now()})
	if e == "" {
		clear(f.active)
	}
	delete(f.active, e)
	return nil
}

// calls lists the logged calls from index from on that match op and,
// unless exp is "*", exp.
func (f *fakeControl) calls(from int, op, exp string) []controlCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []controlCall
	for _, c := range f.log[min(from, len(f.log)):] {
		if c.op == op && (exp == "*" || c.exp == exp) {
			out = append(out, c)
		}
	}
	return out
}

func (f *fakeControl) mark() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.log)
}

// testShard is one shard of a test federation.
type testShard struct {
	id   string
	cp   *fakeControl
	link *flakyLink
}

func newTestCoordinator(t *testing.T, exps []string, shards ...string) *Coordinator {
	c, err := NewCoordinator(CoordinatorOptions{
		Shards: shards, Experiments: exps, ShardTTL: linkTTL, AdminToken: "fed",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startShard runs shard id against c through its own proxy. The server
// has an admin plane, so a push adopt from the coordinator would reach
// cp too.
func startShard(t *testing.T, c *Coordinator, id string, cp *fakeControl) *testShard {
	link := newFlakyLink(t, c.URL())
	srv, err := NewServer(Options{ShardID: id, Coordinator: strings.TrimPrefix(link.srv.URL, "http://"), AdminToken: "fed"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetControl(cp)
	return &testShard{id: id, cp: cp, link: link}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ownedBy splits exps by rendezvous owner over shards.
func ownedBy(t *testing.T, exps, shards []string) map[string][]string {
	out := map[string][]string{}
	for _, e := range exps {
		o := rendezvousOwner(e, shards)
		out[o] = append(out[o], e)
	}
	for _, id := range shards {
		if len(out[id]) == 0 {
			t.Fatalf("fixture degenerate: %s owns none of %v", id, exps)
		}
	}
	return out
}

var linkExps = []string{"team-a/cifar", "team-a/mnist", "team-b/lm", "solo", "wide", "deep"}

// TestShardBootAdoptsItsAssignment: the first beat's reply is enough —
// the shard adopts its slice before its second beat, once each, and
// nothing else.
func TestShardBootAdoptsItsAssignment(t *testing.T) {
	own := ownedBy(t, linkExps, []string{"s1", "s2"})
	c := newTestCoordinator(t, linkExps, "s1", "s2")
	start := time.Now()
	sh := startShard(t, c, "s1", newFakeControl())
	waitUntil(t, "boot adoption", func() bool { return len(sh.cp.calls(0, "adopt", "*")) == len(own["s1"]) })
	for _, e := range own["s1"] {
		got := sh.cp.calls(0, "adopt", e)
		if len(got) != 1 {
			t.Fatalf("%s adopted %d times, want once", e, len(got))
		}
		if d := got[0].at.Sub(start); d >= linkTTL/3 {
			t.Errorf("%s adopted %v after start, later than the second beat could be", e, d)
		}
	}
	time.Sleep(linkTTL) // three beats restating the same assignment
	if n := len(sh.cp.calls(0, "adopt", "*")); n != len(own["s1"]) {
		t.Fatalf("%d adopts after three beats, want the %d of boot", n, len(own["s1"]))
	}
	if drops := sh.cp.calls(0, "drop", "*"); len(drops) != 0 {
		t.Fatalf("a healthy shard dropped %v", drops)
	}
}

// TestShardRetriesFailedAdopt: an adopt that fails is retried on the
// next beat; one refused as already active counts as applied and is
// never sent again.
func TestShardRetriesFailedAdopt(t *testing.T) {
	own := ownedBy(t, linkExps, []string{"s1", "s2"})["s1"]
	if len(own) < 2 {
		t.Fatalf("fixture degenerate: s1 owns %v", own)
	}
	flaky, byHand := own[0], own[1]
	cp := newFakeControl()
	cp.failAdopt[flaky] = 1
	cp.active[byHand] = true // an operator adopted it before the link did
	c := newTestCoordinator(t, linkExps, "s1", "s2")
	startShard(t, c, "s1", cp)
	waitUntil(t, "the retried adopt", func() bool { return len(cp.calls(0, "adopt", flaky)) == 2 })
	tries := cp.calls(0, "adopt", flaky)
	if gap := tries[1].at.Sub(tries[0].at); gap < linkTTL/6 {
		t.Errorf("failed adopt retried after %v, want the next beat (~%v)", gap, linkTTL/3)
	}
	time.Sleep(linkTTL)
	if n := len(cp.calls(0, "adopt", flaky)); n != 2 {
		t.Errorf("%s adopted %d times, want a failure and one success", flaky, n)
	}
	if n := len(cp.calls(0, "adopt", byHand)); n != 1 {
		t.Errorf("already-active %s sent %d adopts, want 1", byHand, n)
	}
}

// TestShardDropsWhatMovedAway: an experiment missing from a beat reply
// gets Drop(name), once, and nothing else is touched.
func TestShardDropsWhatMovedAway(t *testing.T) {
	own := ownedBy(t, linkExps, []string{"s1", "s2"})["s1"]
	c := newTestCoordinator(t, linkExps, "s1", "s2")
	sh := startShard(t, c, "s1", newFakeControl())
	waitUntil(t, "boot adoption", func() bool { return len(sh.cp.calls(0, "adopt", "*")) == len(own) })
	moved := own[0]
	c.mu.Lock()
	c.assign[moved] = "s2"
	c.mu.Unlock()
	waitUntil(t, "the drop", func() bool { return len(sh.cp.calls(0, "drop", moved)) == 1 })
	time.Sleep(linkTTL)
	if drops := sh.cp.calls(0, "drop", "*"); len(drops) != 1 {
		t.Fatalf("drops %v, want exactly Drop(%q)", drops, moved)
	}
	if n := len(sh.cp.calls(0, "adopt", "*")); n != len(own) {
		t.Fatalf("%d adopts, want the %d of boot", n, len(own))
	}
}

// partition cuts sh's link in mode right after one last successful
// beat whose reply is held back TTL/2, and returns when the shard fenced,
// checking Drop("") landed within TTL + 50ms of that beat's send time.
func partition(t *testing.T, sh *testShard, mode int32) time.Time {
	t.Helper()
	from := sh.cp.mark()
	sh.link.holdThenCut(0, linkTTL/2, mode)
	waitUntil(t, sh.id+"'s self-fence", func() bool { return len(sh.cp.calls(from, "drop", "")) > 0 })
	fence := sh.cp.calls(from, "drop", "")[0].at
	_, last := sh.link.stats()
	if lag := fence.Sub(last); lag > linkTTL+50*time.Millisecond || lag < linkTTL-25*time.Millisecond {
		t.Errorf("%s fenced %v after its last successful beat was sent, want TTL %v (+50ms)", sh.id, lag, linkTTL)
	}
	return fence
}

// TestShardFencesWhenTheLinkDies: a refused or black-holed link fences
// the shard exactly once, in time; the survivor adopts each victim once,
// on its own beat and after the fence; the healed shard adopts nothing it
// no longer owns, and everything once the survivor's own link dies.
func TestShardFencesWhenTheLinkDies(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode int32
	}{{"refuse", linkRefuse}, {"hang", linkHang}} {
		t.Run(tc.name, func(t *testing.T) {
			own := ownedBy(t, linkExps, []string{"s1", "s2"})
			c := newTestCoordinator(t, linkExps, "s1", "s2")
			zombie := startShard(t, c, "s1", newFakeControl())
			survivor := startShard(t, c, "s2", newFakeControl())
			waitUntil(t, "boot adoption", func() bool {
				return len(zombie.cp.calls(0, "adopt", "*")) == len(own["s1"]) &&
					len(survivor.cp.calls(0, "adopt", "*")) == len(own["s2"])
			})

			fence := partition(t, zombie, tc.mode)
			waitUntil(t, "failover adoption", func() bool {
				return len(survivor.cp.calls(0, "adopt", "*")) == len(linkExps)
			})
			time.Sleep(linkTTL / 2) // a beat and a half: room for a second adopt
			for _, e := range own["s1"] {
				got := survivor.cp.calls(0, "adopt", e)
				if len(got) != 1 {
					t.Fatalf("survivor adopted %s %d times, want once (from its own beat)", e, len(got))
				}
				if !got[0].at.After(fence) {
					t.Errorf("survivor adopted %s at %v, before the zombie fenced at %v", e, got[0].at, fence)
				}
			}

			healed := zombie.cp.mark()
			zombie.link.mode.Store(linkPass)
			n, _ := zombie.link.stats()
			waitUntil(t, "healed beats", func() bool { m, _ := zombie.link.stats(); return m >= n+3 })
			if got := zombie.cp.calls(healed, "adopt", "*"); len(got) != 0 {
				t.Fatalf("healed shard adopted %v, which it no longer owns", got)
			}

			partition(t, survivor, tc.mode)
			waitUntil(t, "re-adoption", func() bool {
				return len(zombie.cp.calls(healed, "adopt", "*")) == len(linkExps)
			})
			time.Sleep(linkTTL / 2)
			for _, e := range linkExps {
				if got := zombie.cp.calls(healed, "adopt", e); len(got) != 1 {
					t.Errorf("healed shard adopted %s %d times, want once", e, len(got))
				}
			}
			for _, sh := range []*testShard{zombie, survivor} {
				if got := sh.cp.calls(0, "drop", ""); len(got) != 1 {
					t.Errorf("%s self-fenced %d times, want exactly once", sh.id, len(got))
				}
			}
		})
	}
}

// TestShardSurvivesCoordinatorRestart: a coordinator that restarts on
// the same address knows no shard until it hears one; the shard's next
// beat must make it up again with its URL, and the shard must keep its
// assignment throughout — no drop, no re-adopt, no fence.
func TestShardSurvivesCoordinatorRestart(t *testing.T) {
	const ttl = 600 * time.Millisecond // room for the restart inside one lease
	own := ownedBy(t, linkExps, []string{"s1", "s2"})["s1"]
	opts := CoordinatorOptions{Shards: []string{"s1", "s2"}, Experiments: linkExps, ShardTTL: ttl, AdminToken: "fed"}
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := startShard(t, c, "s1", newFakeControl())
	waitUntil(t, "boot adoption", func() bool { return len(sh.cp.calls(0, "adopt", "*")) == len(own) })
	c.mu.Lock()
	url := c.shards["s1"].url
	c.mu.Unlock()
	if url == "" {
		t.Fatal("the first coordinator never recorded the shard's URL")
	}

	from := sh.cp.mark()
	opts.Listen = c.ln.Addr().String()
	c.Close()
	c, err = NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	waitUntil(t, "the restarted coordinator to hear s1", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.shards["s1"].up
	})
	c.mu.Lock()
	got := c.shards["s1"].url
	c.mu.Unlock()
	if got != url {
		t.Errorf("restarted coordinator has s1 at %q, want %q", got, url)
	}
	n, _ := sh.link.stats()
	waitUntil(t, "three beats to the restarted coordinator", func() bool { m, _ := sh.link.stats(); return m >= n+3 })
	if calls := append(sh.cp.calls(from, "adopt", "*"), sh.cp.calls(from, "drop", "*")...); len(calls) != 0 {
		t.Fatalf("the shard changed its assignment across the restart: %v", calls)
	}
}
