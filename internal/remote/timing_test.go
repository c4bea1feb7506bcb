package remote

// Tests of the control plane's timing (timing.go): the relations
// timingFor keeps over edge TTLs, its refusals at every entry point,
// and the two behaviours that rest on them — a cut shard fences before
// the coordinator may declare it dead, and an agent beats at the
// cadence of its current registration.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
)

// wireMs is d as a far end sees it: cut to whole milliseconds.
func wireMs(d time.Duration) time.Duration {
	return time.Duration(d.Milliseconds()) * time.Millisecond
}

// TestTimingRelations runs timingFor over edge TTLs and flush
// deadlines, and the far ends over what the wire would carry. An
// accepted configuration keeps every relation; a refused one names the
// relation it breaks.
func TestTimingRelations(t *testing.T) {
	const ms = time.Millisecond
	ttls := []time.Duration{1 * ms, 2 * ms, 3 * ms, 10 * ms, 29 * ms, 30 * ms, time.Second, 0}
	flushes := []time.Duration{0, 500 * time.Microsecond, 1 * ms, 1500 * time.Microsecond}
	for _, lease := range ttls {
		for _, shard := range ttls {
			for _, flush := range flushes {
				name := fmt.Sprintf("lease %v, shard %v, flush %v", lease, shard, flush)
				near, err := timingFor(lease, shard, flush)
				var want string // the relation a refusal must name
				switch {
				case lease > 0 && lease < minTTL:
					want = fmt.Sprintf("lease TTL %v is under the 30ms minimum: beats every TTL/3 must be at least 10ms apart and sweeps every TTL/4 at least 5ms", lease)
				case shard > 0 && shard < minTTL:
					want = fmt.Sprintf("shard TTL %v is under the 30ms minimum: beats every TTL/3 must be at least 10ms apart and sweeps every TTL/4 at least 5ms", shard)
				case flush > 0 && flush < ms:
					want = fmt.Sprintf("flush interval %v is under 1ms: the millisecond wire would carry it as 0", flush)
				}
				if want != "" {
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s: error %v, want one naming %q", name, err, want)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: refused: %v", name, err)
					continue
				}
				// The far ends derive from what the wire carries.
				agent, err := timingFor(wireMs(near.leaseTTL), 0, wireMs(near.flush))
				if err != nil {
					t.Errorf("%s: the agent refuses the server's advert: %v", name, err)
					continue
				}
				link, err := timingFor(0, wireMs(near.shardTTL), 0)
				if err != nil {
					t.Errorf("%s: the shard refuses the coordinator's beat reply: %v", name, err)
					continue
				}
				for what, d := range map[string]time.Duration{
					"leaseTTLms": near.leaseTTL, "flushMs": near.flush, "ttlMs": near.shardTTL,
				} {
					if d.Milliseconds() < 1 {
						t.Errorf("%s: %s carries %v as %dms", name, what, d, d.Milliseconds())
					}
				}
				if link.shardFence > near.shardTTL {
					t.Errorf("%s: the shard holds %v from a beat's send, past ShardTTL %v", name, link.shardFence, near.shardTTL)
				}
				if 2*link.shardBeat >= link.shardFence {
					t.Errorf("%s: shard beats every %v, fewer than twice in its %v hold", name, link.shardBeat, link.shardFence)
				}
				if agent.leaseBeat != near.leaseBeat || link.shardBeat != near.shardBeat {
					t.Errorf("%s: the ends disagree on a cadence: lease %v/%v, shard %v/%v",
						name, agent.leaseBeat, near.leaseBeat, link.shardBeat, near.shardBeat)
				}
				if 2*agent.leaseBeat >= near.leaseTTL {
					t.Errorf("%s: the agent beats every %v, fewer than twice per lease TTL %v", name, agent.leaseBeat, near.leaseTTL)
				}
				if agent.flush != wireMs(near.flush) {
					t.Errorf("%s: the agent flushes after %v, advertised %v", name, agent.flush, near.flush)
				}
				if near.leaseSweep > near.leaseTTL/4 || near.shardSweep > near.shardTTL/4 {
					t.Errorf("%s: sweeps every %v and %v, past TTL/4 of %v and %v",
						name, near.leaseSweep, near.shardSweep, near.leaseTTL, near.shardTTL)
				}
				for _, beat := range []time.Duration{near.leaseBeat, near.shardBeat, agent.leaseBeat, link.shardBeat} {
					if beat < 10*ms {
						t.Errorf("%s: a beat every %v, under 10ms", name, beat)
					}
				}
				if near.leaseSweep < 5*ms || near.shardSweep < 5*ms {
					t.Errorf("%s: sweeps every %v and %v, under 5ms", name, near.leaseSweep, near.shardSweep)
				}
			}
		}
	}
	def, err := timingFor(0, 0, 0)
	if err != nil || def.leaseTTL != 15*time.Second || def.shardTTL != DefaultShardTTL || def.flush != DefaultFlushInterval {
		t.Errorf("defaults: %+v, %v; want a 15s lease TTL, shard TTL %v, flush %v", def, err, DefaultShardTTL, DefaultFlushInterval)
	}
}

// TestTimingRefusedAtEveryEntryPoint: the server, the coordinator and
// the agent each refuse a timing that breaks a relation — the server
// and the coordinator before they bind, the agent at registration. A
// 2ms shard TTL once got a 0ms cadence on the wire, and the shard
// never armed its fence.
func TestTimingRefusedAtEveryEntryPoint(t *testing.T) {
	for _, o := range []Options{{LeaseTTL: 5 * time.Millisecond}, {FlushInterval: 500 * time.Microsecond}} {
		if srv, err := NewServer(o); err == nil {
			srv.Close()
			t.Errorf("NewServer(%+v) accepted", o)
		}
	}
	if c, err := NewCoordinator(CoordinatorOptions{Shards: []string{"s1"}, ShardTTL: 2 * time.Millisecond}); err == nil || !strings.Contains(err.Error(), "shard TTL 2ms") {
		if c != nil {
			c.Close()
		}
		t.Errorf("NewCoordinator with a 2ms shard TTL: %v, want a refusal naming it", err)
	}
	reg := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"v":%d,"worker":"w1","leaseTTLms":2}`, ProtocolVersion)
	}))
	defer reg.Close()
	err := ServeAgent(context.Background(), AgentOptions{Server: reg.URL, RegisterTimeout: 5 * time.Second,
		Resolve: func(string) (exec.Objective, error) { return pureObjective, nil }})
	if err == nil || !strings.Contains(err.Error(), "lease TTL 2ms") {
		t.Errorf("agent registered with a 2ms lease TTL advertised: %v, want a refusal naming it", err)
	}
}

// TestTimingShardFencesBeforeDeclaredDead: at the smallest shard TTL
// accepted, a shard whose link is cut drops its experiments the TTL
// after its last good beat was sent, and before the coordinator,
// counting from that beat's receipt a third of a TTL later, declares it
// dead. Five rounds; a round the host stalls may miss, most may not.
func TestTimingShardFencesBeforeDeclaredDead(t *testing.T) {
	const ttl = minTTL
	exps := []string{"solo", "wide"}
	c, err := NewCoordinator(CoordinatorOptions{Shards: []string{"s1"}, Experiments: exps, ShardTTL: ttl, AdminToken: "fed"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	downs := make(chan time.Time, 64)
	sub := c.bus.Subscribe()
	go func() {
		for {
			evs, _, ok := sub.Next(ctx)
			if !ok {
				return
			}
			for _, e := range evs {
				if e.Type == obs.EventShardDown {
					downs <- time.Now()
				}
			}
		}
	}()
	sh := startShard(t, c, "s1", newFakeControl())
	const (
		rounds = 5
		lag    = ttl / 3 // the last good beat's trip to the coordinator
	)
	var held []time.Duration
	late := 0
	for round := 1; round <= rounds; round++ {
		waitUntil(t, "s1 to own its experiments", func() bool {
			sh.cp.mu.Lock()
			owns := len(sh.cp.active) == len(exps)
			sh.cp.mu.Unlock()
			c.mu.Lock()
			defer c.mu.Unlock()
			return owns && c.shards["s1"].up
		})
		for len(downs) > 0 {
			<-downs
		}
		from := sh.cp.mark()
		sh.link.holdThenCut(lag, 0, linkRefuse)
		var down time.Time
		select {
		case down = <-downs:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the coordinator never declared the cut shard dead", round)
		}
		waitUntil(t, "s1's self-fence", func() bool { return len(sh.cp.calls(from, "drop", "")) > 0 })
		fence := sh.cp.calls(from, "drop", "")[0].at
		_, sent := sh.link.stats()
		if !fence.Before(down) {
			late++
		}
		held = append(held, fence.Sub(sent))
		sh.link.mode.Store(linkPass)
	}
	// A host that stalls the process for a few milliseconds makes a
	// round run late; the median round may not.
	slices.Sort(held)
	if med := held[rounds/2]; med > ttl+ttl/6 {
		t.Errorf("s1 fenced a median %v after its last good beat was sent (rounds: %v), want the TTL %v", med, held, ttl)
	}
	if late > rounds/2 {
		t.Errorf("s1 fenced after the coordinator declared it dead in %d of %d rounds (held %v)", late, rounds, held)
	}
}

// tcpRelay forwards TCP connections to a target it can switch. A
// switch cuts every connection it carries, so the client sees its
// server vanish without a goodbye and its next dial reaches the new one.
type tcpRelay struct {
	ln     net.Listener
	mu     sync.Mutex
	target string
	conns  []net.Conn
}

func newTCPRelay(t *testing.T, target string) *tcpRelay {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &tcpRelay{ln: ln, target: target}
	t.Cleanup(func() { ln.Close(); r.switchTo("") })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			r.mu.Lock()
			u, err := net.Dial("tcp", r.target)
			if err != nil {
				r.mu.Unlock()
				c.Close()
				continue
			}
			r.conns = append(r.conns, c, u)
			r.mu.Unlock()
			go func() { _, _ = io.Copy(u, c); u.Close() }()
			go func() { _, _ = io.Copy(c, u); c.Close() }()
		}
	}()
	return r
}

func (r *tcpRelay) switchTo(target string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.target = target
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

// TestTimingAgentFollowsReregistration: an agent registered under a 60s
// lease TTL loses its server to one with a TTL a few times the minimum
// and registers again. It must beat at the new registration's cadence,
// so jobs that run several TTLs each finish without one lease expiring.
func TestTimingAgentFollowsReregistration(t *testing.T) {
	const ttl = 5 * minTTL // beats 50ms apart: a host's stall does not look like a dead worker
	srv1, err := NewServer(Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	relay := newTCPRelay(t, srv1.ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agentDone := make(chan error, 1)
	go func() {
		agentDone <- ServeAgent(ctx, AgentOptions{Server: "http://" + relay.ln.Addr().String(), Slots: 2,
			Resolve: func(string) (exec.Objective, error) {
				return func(ctx context.Context, _ map[string]float64, _, to float64, _ interface{}) (float64, interface{}, error) {
					if to > 1 {
						select {
						case <-time.After(3 * ttl):
						case <-ctx.Done():
						}
					}
					return to, nil, nil
				}, nil
			}})
	}()
	outcomes := make(chan Outcome, 8)
	await := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case o := <-outcomes:
				if o.Failed || o.Err != "" {
					t.Fatalf("job answered %+v: its lease expired between beats", o)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d jobs answered", i, n)
			}
		}
	}
	srv1.Submit(JobPayload{Trial: 1, To: 1}, func(o Outcome) { outcomes <- o })
	await(1) // registered under the 60s TTL: a beat every 20s

	srv2, err := NewServer(Options{LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	relay.switchTo(srv2.ln.Addr().String())
	for i := 2; i <= 5; i++ {
		srv2.Submit(JobPayload{Trial: i, To: 2}, func(o Outcome) { outcomes <- o })
	}
	await(4)
	if c := srv2.Counters(); c.Registered != 1 || c.Expired != 0 {
		t.Fatalf("the new server saw %d registrations and %d expired leases, want 1 and 0", c.Registered, c.Expired)
	}
	srv2.Close()
	if err := <-agentDone; err != nil {
		t.Fatalf("agent: %v", err)
	}
}
