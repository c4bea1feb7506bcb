package remote

import (
	"fmt"
	"sync"
	"time"
)

// minTTL is the smallest lease or shard TTL accepted: its beats
// (TTL/3) are 10ms apart and its sweeps (TTL/4) 7.5ms.
const minTTL = 30 * time.Millisecond

// timing is every interval the control plane runs on.
type timing struct {
	leaseTTL   time.Duration // a lease's life without a heartbeat
	leaseBeat  time.Duration // the agent's heartbeat cadence
	leaseSweep time.Duration // the lease server's expiry sweep
	flush      time.Duration // the report-flush deadline advertised to workers
	shardTTL   time.Duration // a shard's life without a beat, from the coordinator's receipt
	shardBeat  time.Duration // the shard link's beat cadence
	shardSweep time.Duration // the coordinator's death sweep
	shardFence time.Duration // what a successful beat holds, from its send time
}

// timingFor derives every beat cadence, sweep interval and fence window
// of the control plane from the lease TTL, the shard TTL and the
// report-flush deadline; a zero or negative one takes its default. Each
// party runs it on what it holds — NewServer and NewCoordinator on their
// options, the agent on its registration's advert, the shard link on a
// beat reply — and derives from each TTL cut to whole milliseconds, as
// the far end sees it, so both ends agree. DESIGN.md, "Failover", lists
// the relations this keeps and the tests that pin them. A TTL under
// minTTL, or a flush deadline the wire would carry as 0, is refused,
// not floored: a floor would break them.
func timingFor(leaseTTL, shardTTL, flush time.Duration) (timing, error) {
	if leaseTTL <= 0 {
		leaseTTL = 15 * time.Second
	}
	if shardTTL <= 0 {
		shardTTL = DefaultShardTTL
	}
	if flush <= 0 {
		flush = DefaultFlushInterval
	}
	for i, ttl := range [2]time.Duration{leaseTTL, shardTTL} {
		if ttl < minTTL {
			return timing{}, fmt.Errorf("remote: %s TTL %v is under the %v minimum: beats every TTL/3 must be at least 10ms apart and sweeps every TTL/4 at least 5ms",
				[2]string{"lease", "shard"}[i], ttl, minTTL)
		}
	}
	if flush < time.Millisecond {
		return timing{}, fmt.Errorf("remote: flush interval %v is under 1ms: the millisecond wire would carry it as 0, which means flush at once", flush)
	}
	lease, shard := leaseTTL.Truncate(time.Millisecond), shardTTL.Truncate(time.Millisecond)
	return timing{
		leaseTTL: leaseTTL, leaseBeat: lease / 3, leaseSweep: leaseTTL / 4, flush: flush,
		shardTTL: shardTTL, shardBeat: shard / 3, shardSweep: shardTTL / 4, shardFence: shard,
	}, nil
}

// sweepEvery runs pass every interval on a goroutine of its own until
// the returned stop is first called, which returns once that goroutine
// has: the lease server's expiry sweep and the coordinator's death
// sweep.
func sweepEvery(interval time.Duration, pass func(time.Time)) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case now := <-tick.C:
				pass(now)
			}
		}
	}()
	return sync.OnceFunc(func() { close(quit); <-done })
}
