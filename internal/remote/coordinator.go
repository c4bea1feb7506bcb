package remote

// The federated control-plane tier (coordinator.go): a Coordinator
// owns the experiment->shard assignment for a deployment of several
// tuner processes ("shards"), routes registering workers to the shard
// that owns their experiments, and fails a dead shard's experiments
// over to survivors.
//
// Ownership is decided by rendezvous (highest-random-weight) hashing
// over the live shard set: every experiment hashes against every
// shard ID and the highest score wins, so removing one shard moves
// only that shard's experiments and leaves every other assignment
// untouched — exactly the property failover needs. The assignment map
// is mutated only by failover; a shard that returns after being
// declared dead receives whatever it still owns (possibly nothing),
// never clawing experiments back mid-run.
//
// The coordinator speaks three small JSON surfaces:
//
//	/v1/register   — workers: answered with a redirect advert naming
//	                 the owning shard's base URL; the agent
//	                 re-registers there (agent.go)
//	/v1/shard/beat — shards: {id, url}, answered with the shard's
//	                 assignment and the TTL, from which the shard
//	                 derives its cadence and fence (timingFor); a shard
//	                 silent past the TTL is declared dead and failed
//	                 over. The beat is idempotent: the first one
//	                 announces the shard, and a restarted coordinator
//	                 learns each shard again from its next one
//	/v1/shards     — operators (ashactl): assignment + health
//
// plus the usual /metrics and /v1/events planes. The coordinator never
// calls a shard: failover only rewrites the assignment table, and a
// survivor learns it owns an experiment from its own next beat reply,
// at most one beat interval after the death declaration (shard.go,
// timing.go). It then recovers the experiment from its journal via the
// same replay machinery a restart uses; exactly-once holds because the survivor's
// lease generation is seeded past the dead shard's (remote.go,
// nextLease) and redirected workers re-register, purging stale leases.
//
// A false-positive death (GC pause, brief partition) must not leave
// the old owner scheduling experiments a survivor has adopted, so
// ownership is fenced from both ends: a revived shard drops what its
// beat reply no longer lists, and a shard whose last successful beat
// was *sent* at t drops everything at t plus the TTL its reply named —
// ShardTTL cut to whole milliseconds, so never later than t+ShardTTL —
// unless another beat got through (shard.go). The coordinator's clock
// starts when it *receives* that beat, no earlier than t, and declares
// death no sooner than TTL later, so the owner has stopped appending to
// the shared journal before any survivor is told to adopt it.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// DefaultShardTTL is how long a shard may go without a beat before
// the coordinator declares it dead and fails its experiments over
// (CoordinatorOptions.ShardTTL <= 0).
const DefaultShardTTL = 5 * time.Second

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Listen is the TCP address to serve on (default "127.0.0.1:0").
	Listen string
	// Shards is the static set of tuner shard IDs in the deployment.
	// At least one is required.
	Shards []string
	// Experiments is the full experiment list of the deployment; each
	// is assigned an owning shard by rendezvous hashing at startup.
	Experiments []string
	// ShardTTL is the beat liveness window (default DefaultShardTTL;
	// under 30ms is refused, see timingFor).
	ShardTTL time.Duration
	// AdminToken authenticates the shards' beats and gates /v1/shards —
	// the one fleet-internal secret, the same Options.AdminToken every
	// shard presents.
	AdminToken string
	// Token and TenantTokens mirror the shards' worker credentials so
	// the coordinator can reject a bad worker token at routing time
	// instead of letting the worker discover it one redirect later.
	// Empty means any worker token is routed.
	Token        string
	TenantTokens map[string]string
	// EventBuffer is the /v1/events ring capacity (default
	// obs.DefaultBusCapacity).
	EventBuffer int
}

// coordShard is one shard's live record.
type coordShard struct {
	id       string
	url      string // base URL its beats announce ("" before the first)
	up       bool
	lastBeat time.Time
	routed   int // unrestricted workers routed here (load balance)
}

// Coordinator is the federated control-plane tier. See the package
// comment at the top of this file.
type Coordinator struct {
	opts   CoordinatorOptions
	timing timing // from opts.ShardTTL (timing.go)
	ln     net.Listener
	hs     *http.Server
	bus    *obs.Bus

	mu     sync.Mutex
	shards map[string]*coordShard
	assign map[string]string // experiment -> owning shard ID

	redirects  atomic.Int64 // workers routed to a shard
	failovers  atomic.Int64 // experiments reassigned off dead shards
	shardsDown atomic.Int64 // shard death declarations

	stopSweep func() // stops the liveness sweeper (sweepEvery), once
}

// NewCoordinator starts a coordinator listening on opts.Listen.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	timing, err := timingFor(0, opts.ShardTTL, 0)
	if err != nil {
		return nil, err
	}
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("remote: coordinator needs at least one shard")
	}
	seen := make(map[string]bool, len(opts.Shards))
	for _, id := range opts.Shards {
		if id == "" {
			return nil, fmt.Errorf("remote: coordinator shard with empty ID")
		}
		if seen[id] {
			return nil, fmt.Errorf("remote: duplicate shard ID %q", id)
		}
		seen[id] = true
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("remote: coordinator listen on %s: %w", opts.Listen, err)
	}
	c := &Coordinator{
		opts:   opts,
		timing: timing,
		ln:     ln,
		bus:    obs.NewBus(opts.EventBuffer),
		shards: make(map[string]*coordShard, len(opts.Shards)),
		assign: make(map[string]string, len(opts.Experiments)),
	}
	for _, id := range opts.Shards {
		c.shards[id] = &coordShard{id: id}
	}
	for _, exp := range opts.Experiments {
		c.assign[exp] = rendezvousOwner(exp, opts.Shards)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", c.handleWorkerRegister)
	mux.HandleFunc("/v1/shard/beat", c.handleShardBeat)
	mux.HandleFunc("/v1/shards", c.handleShards)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/v1/events", c.handleEvents)
	c.hs = &http.Server{Handler: mux}
	go func() { _ = c.hs.Serve(ln) }()
	c.stopSweep = sweepEvery(timing.shardSweep, c.sweepOnce)
	return c, nil
}

// URL is the coordinator's base URL ("http://host:port").
func (c *Coordinator) URL() string { return "http://" + c.ln.Addr().String() }

// Failovers reports how many experiments have been reassigned off dead
// shards over the coordinator's lifetime.
func (c *Coordinator) Failovers() int { return int(c.failovers.Load()) }

// Close shuts the coordinator down: the sweeper stops and the listener
// closes. It is idempotent.
func (c *Coordinator) Close() error {
	c.stopSweep()
	c.bus.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.hs.Shutdown(ctx); err != nil {
		_ = c.hs.Close()
	}
	return nil
}

// rendezvousOwner picks the owning shard for an experiment by
// highest-random-weight hashing: every shard scores
// mix(fnv64a(shardID, 0, experiment)) and the highest score wins (ties
// to the lexicographically smallest ID, for determinism). Every node
// computes the same answer with no coordination, and removing a shard
// moves only that shard's experiments. FNV-1a alone diffuses the last
// bytes it folds into the low bits only, so names that differ at the end
// ("exp-1", "exp-2") compare by their shard IDs' scores and cluster on
// one shard; the SplitMix64 finalizer makes every score bit depend on
// every name byte.
func rendezvousOwner(experiment string, shards []string) string {
	var best string
	var bestScore uint64
	for _, id := range shards {
		h := xrand.NewFNV64()
		h.String(id)
		h.String("\x00")
		h.String(experiment)
		score := xrand.Mix(h.Sum())
		if best == "" || score > bestScore || (score == bestScore && id < best) {
			best, bestScore = id, score
		}
	}
	return best
}

// --- shard wire ---

type shardBeatReq struct {
	Version int    `json:"v"`
	Token   string `json:"token,omitempty"`
	ID      string `json:"id"`
	URL     string `json:"url"`
}

type shardBeatResp struct {
	Version int `json:"v"`
	// Experiments is the shard's current assignment, restated on every
	// beat — the only way a shard learns what it owns. A survivor finds
	// failed-over experiments here and adopts them; a shard declared
	// dead while partitioned finds its lost experiments missing on its
	// first beat back and must stop running them (drop).
	Experiments []string `json:"experiments"`
	// TTLMillis is the shard TTL in whole milliseconds: the shard runs
	// timingFor on it for its beat cadence and its fence.
	TTLMillis int64 `json:"ttlMs"`
}

// ShardStatus is one shard's row in the /v1/shards answer.
type ShardStatus struct {
	ID         string `json:"id"`
	URL        string `json:"url,omitempty"`
	Registered bool   `json:"registered"`
	Up         bool   `json:"up"`
	// AgeMillis is how long ago the last beat arrived (-1 before the
	// first one).
	AgeMillis   int64    `json:"ageMs"`
	Experiments []string `json:"experiments,omitempty"`
}

// ShardsStatus is the full /v1/shards answer.
type ShardsStatus struct {
	OK        bool          `json:"ok"`
	Shards    []ShardStatus `json:"shards"`
	Failovers int64         `json:"failovers"`
}

// handleShardBeat records a shard's beat and restates its assignment.
// A beat from a shard the coordinator has not heard from yet — at boot,
// or after the coordinator restarted — is no different from any other.
func (c *Coordinator) handleShardBeat(w http.ResponseWriter, r *http.Request) {
	var req shardBeatReq
	if !decodePost(w, r, &req.Version, &req) {
		return
	}
	if c.opts.AdminToken != "" && !tokenIs(req.Token, c.opts.AdminToken) {
		reject(w, http.StatusUnauthorized, "bad or missing shard token")
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		reject(w, http.StatusBadRequest, fmt.Sprintf("bad shard URL %q", req.URL))
		return
	}
	c.mu.Lock()
	sh, known := c.shards[req.ID]
	if !known {
		c.mu.Unlock()
		reject(w, http.StatusForbidden, fmt.Sprintf("unknown shard %q", req.ID))
		return
	}
	sh.url = strings.TrimSuffix(req.URL, "/")
	sh.up = true
	sh.lastBeat = time.Now()
	assigned := c.assignedLocked(req.ID)
	c.mu.Unlock()
	reply(w, shardBeatResp{
		Version:     ProtocolVersion,
		Experiments: assigned,
		TTLMillis:   c.timing.shardTTL.Milliseconds(),
	})
}

// assignedLocked lists the experiments currently owned by a shard,
// sorted. Callers hold c.mu.
func (c *Coordinator) assignedLocked(shardID string) []string {
	var out []string
	for exp, owner := range c.assign {
		if owner == shardID {
			out = append(out, exp)
		}
	}
	sort.Strings(out)
	return out
}

// handleWorkerRegister answers a worker's registration with a redirect
// advert naming the shard that owns its experiments: the agent
// re-registers against the advertised URL (agent.go follows the
// redirect), so the coordinator never brokers leases itself.
func (c *Coordinator) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req registerReq
	if !decodePost(w, r, &req.Version, &req) {
		return
	}
	if _, ok := admitWorker(w, &req, c.opts.Token, c.opts.TenantTokens); !ok {
		return
	}
	c.mu.Lock()
	target := c.routeLocked(req.Experiments)
	c.mu.Unlock()
	if target == "" {
		reject(w, http.StatusServiceUnavailable, "no live shard owns the requested experiments")
		return
	}
	c.redirects.Add(1)
	reply(w, registerResp{Version: ProtocolVersion, Redirect: target})
}

// routeLocked picks the shard URL a registering worker should be sent
// to: the live shard owning the most of its requested experiments, or
// — for an unrestricted worker — the live shard with the fewest
// workers routed so far. "" means no live shard can serve it. Callers
// hold c.mu.
func (c *Coordinator) routeLocked(experiments []string) string {
	if len(experiments) > 0 {
		votes := make(map[string]int)
		for _, exp := range experiments {
			if owner, ok := c.assign[exp]; ok {
				if sh := c.shards[owner]; sh != nil && sh.up && sh.url != "" {
					votes[owner]++
				}
			}
		}
		var best string
		for id, n := range votes {
			if best == "" {
				best = id
				continue
			}
			b := votes[best]
			// Equal ownership: spread the tie across shards by routing
			// pressure, not a fixed ID order — otherwise every worker
			// whose experiments straddle two shards herds onto one.
			if n > b || (n == b && (c.shards[id].routed < c.shards[best].routed ||
				(c.shards[id].routed == c.shards[best].routed && id < best))) {
				best = id
			}
		}
		if best == "" {
			return ""
		}
		c.shards[best].routed++
		return c.shards[best].url
	}
	var best *coordShard
	for _, id := range c.opts.Shards {
		sh := c.shards[id]
		if !sh.up || sh.url == "" {
			continue
		}
		if best == nil || sh.routed < best.routed {
			best = sh
		}
	}
	if best == nil {
		return ""
	}
	best.routed++
	return best.url
}

func (c *Coordinator) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		reject(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if c.opts.AdminToken != "" {
		token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || !tokenIs(token, c.opts.AdminToken) {
			reject(w, http.StatusUnauthorized, "bad or missing admin token")
			return
		}
	}
	now := time.Now()
	c.mu.Lock()
	st := ShardsStatus{OK: true, Failovers: c.failovers.Load()}
	for _, id := range c.opts.Shards {
		sh := c.shards[id]
		row := ShardStatus{
			ID:          id,
			URL:         sh.url,
			Registered:  sh.url != "",
			Up:          sh.up,
			AgeMillis:   -1,
			Experiments: c.assignedLocked(id),
		}
		if !sh.lastBeat.IsZero() {
			row.AgeMillis = now.Sub(sh.lastBeat).Milliseconds()
		}
		st.Shards = append(st.Shards, row)
	}
	c.mu.Unlock()
	reply(w, st)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		reject(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var b strings.Builder
	c.mu.Lock()
	obs.PromHeader(&b, "asha_coord_shard_up", "gauge", "1 while the shard beats within its TTL.")
	for _, id := range c.opts.Shards {
		obs.PromSample(&b, "asha_coord_shard_up", []obs.Label{{Name: "shard", Value: id}}, boolGauge(c.shards[id].up))
	}
	obs.PromHeader(&b, "asha_coord_shard_experiments", "gauge", "Experiments currently assigned to the shard.")
	for _, id := range c.opts.Shards {
		obs.PromSample(&b, "asha_coord_shard_experiments", []obs.Label{{Name: "shard", Value: id}}, float64(len(c.assignedLocked(id))))
	}
	c.mu.Unlock()
	obs.PromHeader(&b, "asha_coord_worker_redirects_total", "counter", "Workers routed to an owning shard.")
	obs.PromSample(&b, "asha_coord_worker_redirects_total", nil, float64(c.redirects.Load()))
	obs.PromHeader(&b, "asha_coord_failovers_total", "counter", "Experiments reassigned off dead shards.")
	obs.PromSample(&b, "asha_coord_failovers_total", nil, float64(c.failovers.Load()))
	obs.PromHeader(&b, "asha_coord_shard_down_total", "counter", "Shard death declarations.")
	obs.PromSample(&b, "asha_coord_shard_down_total", nil, float64(c.shardsDown.Load()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	streamEvents(w, r, c.bus, nil)
}

// sweepOnce is one pass of the liveness sweeper: a shard silent past
// the TTL is declared dead and its experiments are reassigned to live
// shards by the same rendezvous hash. Each survivor learns of its new
// experiments from its own next beat reply.
func (c *Coordinator) sweepOnce(now time.Time) {
	var deadIDs, moved []string
	c.mu.Lock()
	for _, id := range c.opts.Shards {
		sh := c.shards[id]
		if sh.up && now.Sub(sh.lastBeat) > c.timing.shardTTL {
			sh.up = false
			deadIDs = append(deadIDs, id)
		}
	}
	if len(deadIDs) > 0 {
		var live []string
		for _, id := range c.opts.Shards {
			if c.shards[id].up {
				live = append(live, id)
			}
		}
		for _, dead := range deadIDs {
			if len(live) == 0 {
				// Nobody to fail over to: ownership stays put so the shard
				// picks its experiments back up if it returns.
				continue
			}
			for _, exp := range c.assignedLocked(dead) {
				c.assign[exp] = rendezvousOwner(exp, live)
				moved = append(moved, exp)
			}
		}
	}
	c.mu.Unlock()
	for _, id := range deadIDs {
		c.shardsDown.Add(1)
		c.bus.Publish(obs.Event{Type: obs.EventShardDown, Experiment: id})
	}
	for _, exp := range moved {
		c.failovers.Add(1)
		c.bus.Publish(obs.Event{Type: obs.EventFailover, Experiment: exp})
	}
}
