package remote

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// leaseTable is what Server.mu guards of the lease server but its
// stream set and control plane. Every method runs under Server.mu. None
// reads a clock (the caller passes now), answers a task or touches the
// network, so what the table does depends only on the calls made: a
// method that takes tasks out returns them, and the caller finishes
// and recycles them once it has let go of the lock.
type leaseTable struct {
	ttl time.Duration // a granted lease's life without a heartbeat

	wake chan struct{} // closed and replaced on every state change
	// wakeArmed records that some poller captured wake and intends to
	// sleep on it: wakeAll only pays the close-and-reallocate when a
	// waiter may be listening, so a Submit storm with every worker busy
	// churns no channels.
	wakeArmed bool
	// pending[pendingHead:] is the FIFO job queue. The head index makes
	// the common grant — the oldest matching job IS the oldest job — an
	// O(1) pop instead of an O(queue) slice shift, which dominated the
	// grant path at deep backlogs (a 1024-job pipeline shifted ~8KB of
	// pointers per grant).
	pending     []*task
	pendingHead int
	slab        []task  // the unused tail of the newest task chunk (see taskSlabLen)
	free        []*task // settled tasks, for submit to reuse (see task)
	firstLease  uint64  // nextLease before the first grant
	nextLease   uint64
	nextWorker  int
	// workers maps a worker ID to the tenant of the token it registered
	// with ("" for the fleet token, whose workers take any tenant's jobs):
	// every later request driving the ID must present the same scope.
	workers map[string]string
	closed  bool
	// paused holds experiment names whose queued jobs are withheld from
	// lease grants ("" pauses jobs of single-experiment runs — and, as
	// the match loop treats it, the whole queue). draining tells every
	// lease poll the run is over for its worker without failing queued
	// jobs, so a fleet can be scaled to zero and later repopulated.
	paused   map[string]bool
	draining bool
	// maxLeases is Options.MaxLeases, adjustable at runtime by the
	// admin worker-budget command.
	maxLeases int
	leases    map[uint64]*task // every granted task by lease ID
	n         CounterSnapshot  // the counters; snapshot derives the rest
}

func newLeaseTable(ttl time.Duration, firstLease uint64, maxLeases int) leaseTable {
	return leaseTable{
		ttl:        ttl,
		wake:       make(chan struct{}),
		firstLease: firstLease,
		nextLease:  firstLease,
		workers:    make(map[string]string),
		paused:     make(map[string]bool),
		leases:     make(map[uint64]*task),
		maxLeases:  maxLeases,
	}
}

// wakeAll broadcasts a state change to every long-polling stream
// granter. The close-and-reallocate only happens while a poller is
// armed on the channel: a Submit burst with every worker's pipeline
// full pays nothing, and a poller that arms and then finds work before
// sleeping merely costs one spurious churn.
func (lt *leaseTable) wakeAll() {
	if !lt.wakeArmed {
		return
	}
	lt.wakeArmed = false
	close(lt.wake)
	lt.wake = make(chan struct{})
}

// submit queues a copy of *job stamped submitted at now, unless the
// table is closed.
func (lt *leaseTable) submit(job *task, now time.Time) bool {
	if lt.closed {
		return false
	}
	var t *task
	if n := len(lt.free); n > 0 {
		t = lt.free[n-1]
		lt.free = lt.free[:n-1]
	} else {
		if len(lt.slab) == 0 {
			lt.slab = make([]task, taskSlabLen)
		}
		t = &lt.slab[0]
		lt.slab = lt.slab[1:]
	}
	*t = *job
	t.submitted = now
	lt.pending = append(lt.pending, t)
	lt.n.Submitted++
	lt.wakeAll()
	return true
}

// recycle is Server.recycle's free-list half.
func (lt *leaseTable) recycle(ts []*task) {
	if lt.closed {
		return
	}
	for _, t := range ts {
		if t != nil {
			lt.free = append(lt.free, t)
		}
	}
}

// register records a worker of the tenant ("" unscoped) and returns
// its new ID.
func (lt *leaseTable) register(tenant string) string {
	lt.nextWorker++
	id := fmt.Sprintf("w%d", lt.nextWorker)
	lt.workers[id] = tenant
	return id
}

// grant leases to the worker, in queue order, up to max of the pending
// jobs its experiment restriction and the lease cap allow, and appends
// what the granter encodes of each to grants (emptied by the caller):
// once the lock drops, a task is its settler's, which may recycle it
// (see task). When it grants nothing it returns an armed wake channel
// for the caller to sleep on before retrying.
func (lt *leaseTable) grant(worker string, max int, experiments []string, now time.Time, grants []grantedJob) ([]grantedJob, grantState, <-chan struct{}) {
	if lt.closed || lt.draining {
		return nil, grantDone, nil
	}
	tenant, known := lt.workers[worker]
	if !known {
		return nil, grantGone, nil
	}
	for len(grants) < max && (lt.maxLeases == 0 || len(lt.leases) < lt.maxLeases) {
		idx := lt.match(experiments, tenant)
		if idx < 0 {
			break
		}
		t := lt.pending[idx]
		// Head grants (no experiment restriction, nothing paused — the
		// common case) pop in O(1); a mid-queue match shifts only the
		// short skipped-over head segment, not the whole backlog.
		copy(lt.pending[lt.pendingHead+1:idx+1], lt.pending[lt.pendingHead:idx])
		lt.pending[lt.pendingHead] = nil // release the task reference
		lt.pendingHead++
		if lt.pendingHead == len(lt.pending) {
			lt.pending, lt.pendingHead = lt.pending[:0], 0
		} else if lt.pendingHead > 1024 && lt.pendingHead*2 >= len(lt.pending) {
			// Compact once the dead prefix dominates so append can reuse
			// the space instead of growing the backing array without bound.
			n := copy(lt.pending, lt.pending[lt.pendingHead:])
			clear(lt.pending[n:len(lt.pending)])
			lt.pending, lt.pendingHead = lt.pending[:n], 0
		}
		lt.nextLease++
		t.leaseID, t.worker, t.deadline, t.grantedAt = lt.nextLease, worker, now.Add(lt.ttl), now
		lt.leases[t.leaseID] = t
		grants = append(grants, grantedJob{lease: t.leaseID, grantedAt: now, queued: now.Sub(t.submitted), payload: t.payload})
	}
	if len(grants) == 0 {
		lt.wakeArmed = true
		return grants, grantOK, lt.wake
	}
	lt.n.GrantFrames++ // the granter sends one frame per non-empty grant
	return grants, grantOK, nil
}

// match returns the index of the oldest pending job the worker's
// experiment restriction allows (empty = any), or -1. Jobs of paused
// experiments are withheld — a pause freezes the queue server-side on
// top of stopping the scheduler's grants, so jobs submitted just before
// the pause don't leak out to workers. A tenant-scoped worker only
// matches its own tenant's jobs, whatever restriction it asked for.
func (lt *leaseTable) match(experiments []string, tenant string) int {
	if lt.paused[""] {
		// "" pauses the whole queue: single-experiment runs submit jobs
		// with an empty experiment name, and a fleet-wide pause must
		// hold every experiment's jobs.
		return -1
	}
	for i := lt.pendingHead; i < len(lt.pending); i++ {
		t := lt.pending[i]
		if lt.paused[t.payload.Experiment] {
			continue
		}
		if tenant != "" && TenantOf(t.payload.Experiment) != tenant {
			continue
		}
		if len(experiments) == 0 || slices.Contains(experiments, t.payload.Experiment) {
			return i
		}
	}
	return -1
}

// settle takes out of the table the lease of every entry of one
// reports frame that the worker holds, marking it in accepted and its
// task in settled (both cleared by the caller), and returns how many it
// took and the bytes of their checkpoints. An entry whose lease expired,
// was never granted or is another worker's is rejected, and only that
// entry. stream names the frame's path, for the counters.
func (lt *leaseTable) settle(worker string, rb *binReports, stream bool, accepted []bool, settled []*task) (freed, stateBytes int) {
	for i, e := range rb.Reports {
		if t, ok := lt.leases[e.ID]; ok && t.worker == worker {
			delete(lt.leases, e.ID)
			accepted[i], settled[i] = true, t
			freed++
			if !e.IsErr {
				stateBytes += len(e.State)
			}
		}
	}
	n := int64(len(rb.Reports))
	if stream {
		lt.n.ReportFrames++
		lt.n.BinReports += n
	} else {
		lt.n.BatchedReports += n
	}
	lt.n.Accepted += int64(freed)
	lt.n.Rejected += n - int64(freed)
	if freed > 0 && len(lt.pending) > lt.pendingHead {
		lt.wakeAll() // the lease cap may have held the queued jobs back
	}
	return freed, stateBytes
}

// extend pushes the deadline of each lease the worker holds to now plus
// the TTL and returns the IDs it no longer holds.
func (lt *leaseTable) extend(worker string, ids []uint64, now time.Time) (expired []uint64) {
	deadline := now.Add(lt.ttl)
	for _, id := range ids {
		if t, ok := lt.leases[id]; ok && t.worker == worker {
			t.deadline = deadline
		} else {
			expired = append(expired, id)
		}
	}
	return expired
}

// sweep takes every lease whose deadline is before now out of the
// table and returns their tasks in lease-ID order.
func (lt *leaseTable) sweep(now time.Time) (dead []*task) {
	for id, t := range lt.leases {
		if now.After(t.deadline) {
			delete(lt.leases, id)
			dead = append(dead, t)
		}
	}
	sortByLease(dead)
	lt.n.Expired += int64(len(dead))
	lt.n.Sweeps++
	if len(dead) > 0 && len(lt.pending) > lt.pendingHead {
		lt.wakeAll() // the lease cap may have held the queued jobs back
	}
	return dead
}

// cancel takes the named experiment's queued jobs ("" every one) out of
// the queue and returns them in queue order.
func (lt *leaseTable) cancel(experiment string) (canceled []*task) {
	kept := lt.pending[:0]
	for _, t := range lt.pending[lt.pendingHead:] {
		if experiment == "" || t.payload.Experiment == experiment {
			canceled = append(canceled, t)
		} else {
			kept = append(kept, t)
		}
	}
	clear(lt.pending[len(kept):])
	lt.pending, lt.pendingHead = kept, 0
	lt.n.Canceled += int64(len(canceled))
	return canceled
}

// close returns every task still in the table, the queue in order and
// then the leases in lease-ID order, and drops the slab and free list.
// A report racing it either settled before or finds its lease gone.
func (lt *leaseTable) close() (orphans []*task) {
	lt.closed = true
	orphans = append(orphans, lt.pending[lt.pendingHead:]...)
	queued := len(orphans)
	for _, t := range lt.leases {
		orphans = append(orphans, t)
	}
	sortByLease(orphans[queued:])
	clear(lt.leases)
	lt.pending, lt.pendingHead, lt.slab, lt.free = nil, 0, nil, nil
	lt.wakeAll()
	return orphans
}

// sortByLease puts tasks taken from the lease map in grant order, so
// the order they are answered in depends only on the calls made.
func sortByLease(ts []*task) {
	slices.SortFunc(ts, func(a, b *task) int { return cmp.Compare(a.leaseID, b.leaseID) })
}

// snapshot copies the counters and derives the rest. Until close,
// Granted is exactly Accepted + Expired + Leased.
func (lt *leaseTable) snapshot() CounterSnapshot {
	c := lt.n
	c.Registered = int64(lt.nextWorker)
	c.Granted = int64(lt.nextLease - lt.firstLease)
	c.Pending = int64(len(lt.pending) - lt.pendingHead)
	c.Leased = int64(len(lt.leases))
	return c
}
