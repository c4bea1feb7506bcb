package remote

// A federated tuner shard's half of ownership (shard.go). A Server whose
// Options name a Coordinator beats as ShardID once a control plane is
// attached: one idempotent message, {id, url}, every registerRetry
// until a reply names the TTL, then at the cadence timingFor derives
// from it. Each reply restates what the shard owns, and the link
// converges the control plane on it in-process — adopting what
// appeared, dropping what vanished. It is the only way a shard gains or
// loses an experiment: at boot, after a failover, after a self-fence.
// The fence is the holder's half of a lease (Gray & Cheriton, SOSP '89):
// a successful beat sent at t holds the shard's experiments until t
// plus the TTL its reply named, when a timer drops them unless a later
// beat got through, and no call the link makes may outlast that
// deadline.
// DESIGN.md, "Fencing", has the timeline against the coordinator's.

import (
	"cmp"
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"strings"
	"time"
)

// registerRetry paces beats until a reply from the coordinator has
// named the TTL.
const registerRetry = 500 * time.Millisecond

// ErrAlreadyActive is what a ControlPlane's Adopt wraps when the
// experiment is not dormant on this node: the shard link counts such an
// adopt as applied rather than retrying it every beat.
var ErrAlreadyActive = errors.New("already active on this node")

// shardLink is a shard's coordinator link. Its fields past cancel are
// the loop goroutine's alone.
type shardLink struct {
	srv    *Server
	ctx    context.Context
	cancel context.CancelFunc

	coord, self string          // coordinator and advertised base URLs
	quiet       bool            // the link's failure is logged until a beat succeeds
	timing      timing          // from the TTL the last reply named; zero before
	fenceAt     time.Time       // when the last successful beat's hold lapses; zero once fenced
	fence       *time.Timer     // fires at fenceAt
	owned       map[string]bool // the assignment last applied
}

// baseURL turns a host:port (":port" meaning loopback) into a base URL.
func baseURL(addr string) string {
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	return "http://" + addr
}

// run is the link's loop: beat at once, then on every tick, and fence
// when the last successful beat's lease lapses.
func (l *shardLink) run() {
	// Advertise what ashad always has: the listen host on the bound port.
	_, port, _ := net.SplitHostPort(l.srv.ln.Addr().String())
	host, _, _ := net.SplitHostPort(l.srv.opts.Listen)
	l.coord, l.self = baseURL(l.srv.opts.Coordinator), baseURL(net.JoinHostPort(host, port))
	l.fence = newStoppedTimer()
	defer l.fence.Stop()
	tick := time.NewTicker(registerRetry)
	defer tick.Stop()
	l.beat(tick)
	for {
		select {
		case <-l.ctx.Done():
			return
		case <-l.fence.C:
			l.selfFence()
		case <-tick.C:
			l.beat(tick)
		}
	}
}

// beat sends one beat and applies the reply. A coordinator that
// restarted learns the shard again from it; the assignment it hands
// back then is a fresh rendezvous over the full shard set, which may
// disagree with post-failover reality.
func (l *shardLink) beat(tick *time.Ticker) {
	sent := time.Now()
	deadline := sent.Add(cmp.Or(l.timing.shardFence, DefaultShardTTL))
	if !l.fenceAt.IsZero() && l.fenceAt.Before(deadline) {
		deadline = l.fenceAt
	}
	ctx, cancel := context.WithDeadline(l.ctx, deadline)
	defer cancel()
	var br shardBeatResp
	_, err := postJSON(ctx, http.DefaultClient, l.coord, "/v1/shard/beat", shardBeatReq{
		Version: ProtocolVersion, Token: l.srv.opts.AdminToken, ID: l.srv.opts.ShardID, URL: l.self,
	}, &br)
	var t timing
	if err == nil {
		t, err = timingFor(0, time.Duration(br.TTLMillis)*time.Millisecond, 0)
	}
	if err != nil {
		if !l.quiet && l.ctx.Err() == nil {
			log.Printf("remote: shard %s: coordinator link: %v (retrying)", l.srv.opts.ShardID, err)
		}
		l.quiet = true
		return
	}
	l.quiet = false
	if t != l.timing {
		l.timing = t
		tick.Reset(t.shardBeat)
	}
	l.arm(sent.Add(t.shardFence))
	l.reconcile(br.Experiments)
}

// arm (re)starts the fence timer for at.
func (l *shardLink) arm(at time.Time) {
	l.fenceAt = at
	rearm(l.fence, time.Until(at))
}

// selfFence drops every experiment: the last successful beat's lease
// has lapsed, so the coordinator may be handing our journals to a
// survivor. The next beat that gets through re-adopts what we still own.
func (l *shardLink) selfFence() {
	if _, err := l.srv.drop(""); err != nil {
		log.Printf("remote: shard %s: self-fence: %v (retrying)", l.srv.opts.ShardID, err)
		l.arm(time.Now().Add(l.timing.shardBeat))
		return
	}
	if len(l.owned) > 0 {
		log.Printf("remote: shard %s lost the coordinator for %v; fenced (dropped %d experiments)",
			l.srv.opts.ShardID, l.timing.shardFence, len(l.owned))
	}
	l.fenceAt, l.owned = time.Time{}, nil
}

// reconcile converges the control plane on the assignment the
// coordinator just restated: experiments newly assigned here are
// adopted, experiments assigned away are dropped. A failed adopt or
// drop stays out of (or in) owned, so the next beat retries it.
func (l *shardLink) reconcile(target []string) {
	owned := make(map[string]bool, len(target))
	for _, e := range target {
		if !l.owned[e] {
			if err := l.srv.adopt(e); err != nil && !errors.Is(err, ErrAlreadyActive) {
				log.Printf("remote: shard %s: adopting %q: %v (retrying next beat)", l.srv.opts.ShardID, e, err)
				continue
			}
			log.Printf("remote: shard %s adopted %q", l.srv.opts.ShardID, e)
		}
		owned[e] = true
	}
	for e := range l.owned {
		if owned[e] {
			continue
		}
		if _, err := l.srv.drop(e); err != nil {
			log.Printf("remote: shard %s: dropping %q: %v (retrying next beat)", l.srv.opts.ShardID, e, err)
			owned[e] = true
			continue
		}
		log.Printf("remote: shard %s dropped %q (owned elsewhere now)", l.srv.opts.ShardID, e)
	}
	l.owned = owned
}
