package remote

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/exec"
)

// tableTTL is the lease TTL of every table under test.
const tableTTL = time.Second

// tableRig drives one leaseTable through a sequence of calls, on a fake
// clock and with no server around it, beside a model of what the table
// should hold: the queue in order and each live lease's trial, worker
// and deadline. It answers and recycles the tasks the table hands back
// as Server does, and checks the table against the model after every
// step.
type tableRig struct {
	t   *testing.T
	at  string // the step running, for failure messages
	lt  leaseTable
	now time.Time

	trials    int               // trials submitted so far; trial k is the k-th
	exp       map[int]string    // trial -> experiment
	submitted map[int]time.Time // trial -> submit time
	answers   map[int][]Outcome

	// The model.
	queue    []int                 // queued trials, oldest first
	live     map[uint64]modelLease // the lease table
	gone     []uint64              // leases settled or expired, oldest first
	workers  map[string]string     // registered worker -> tenant ("" unscoped)
	paused   map[string]bool
	cap      int
	draining bool
	wake     <-chan struct{} // the last empty grant's wake channel
	closed   bool
}

type modelLease struct {
	trial    int
	worker   string
	deadline time.Time
}

func newTableRig(t *testing.T) *tableRig {
	return &tableRig{
		t:         t,
		lt:        newLeaseTable(tableTTL, 5000, 0),
		now:       time.Unix(1_700_000_000, 0),
		exp:       make(map[int]string),
		submitted: make(map[int]time.Time),
		answers:   make(map[int][]Outcome),
		live:      make(map[uint64]modelLease),
		workers:   make(map[string]string),
		paused:    make(map[string]bool),
	}
}

func (r *tableRig) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf(r.at+": "+format, args...)
}

// answer finishes the tasks the table handed back, as their owner does,
// then recycles them.
func (r *tableRig) answer(ts []*task, out func(*task) Outcome) {
	for _, t := range ts {
		if t != nil {
			t.finish(out(t))
		}
	}
	r.lt.recycle(ts)
}

func answerFailed(*task) Outcome { return Outcome{Failed: true} }

// tableStep is one call on the table and the model's account of it.
type tableStep struct {
	name string
	do   func(r *tableRig)
}

func submit(exp string, n int) tableStep {
	return tableStep{fmt.Sprintf("submit %d of %q", n, exp), func(r *tableRig) {
		for i := 0; i < n; i++ {
			r.trials++
			k := r.trials
			r.exp[k], r.submitted[k] = exp, r.now
			job := &task{payload: JobPayload{Experiment: exp, Trial: k}, done: func(o Outcome) {
				r.answers[k] = append(r.answers[k], o)
			}}
			if !r.lt.submit(job, r.now) {
				if !r.closed {
					r.fatalf("an open table refused trial %d", k)
				}
				job.finish(Outcome{Failed: true})
				continue
			}
			if r.closed {
				r.fatalf("a closed table queued trial %d", k)
			}
			r.queue = append(r.queue, k)
			if r.wake != nil {
				select {
				case <-r.wake:
				default:
					r.fatalf("a submit left the waiting granter asleep")
				}
				r.wake = nil
			}
		}
	}}
}

func register(want string, tenant string) tableStep {
	return tableStep{"register " + want, func(r *tableRig) {
		if id := r.lt.register(tenant); id != want {
			r.fatalf("registered as %s, want %s", id, want)
		}
		r.workers[want] = tenant
	}}
}

// grant asks for up to max jobs for the worker and checks the grant
// against the oldest matching jobs of the model queue.
func grant(worker string, max int, experiments ...string) tableStep {
	return tableStep{fmt.Sprintf("grant %s %d %v", worker, max, experiments), func(r *tableRig) {
		grants, state, wake := r.lt.grant(worker, max, experiments, r.now, nil)
		tenant, known := r.workers[worker]
		switch {
		case r.closed || r.draining:
			if state != grantDone || len(grants) != 0 {
				r.fatalf("closed or draining: granted %d, state %d", len(grants), state)
			}
			return
		case !known:
			if state != grantGone || len(grants) != 0 {
				r.fatalf("unknown worker: granted %d, state %d", len(grants), state)
			}
			return
		}
		var want []int
		kept := r.queue[:0:0]
		for _, k := range r.queue {
			if len(want) < max && (r.cap == 0 || len(r.live)+len(want) < r.cap) && r.matches(tenant, k, experiments) {
				want = append(want, k)
			} else {
				kept = append(kept, k)
			}
		}
		var got []int
		for _, g := range grants {
			got = append(got, g.payload.Trial)
			if g.grantedAt != r.now || g.queued != r.now.Sub(r.submitted[g.payload.Trial]) {
				r.fatalf("lease %d stamped %v after %v queued", g.lease, g.grantedAt, g.queued)
			}
			if _, dup := r.live[g.lease]; dup || g.lease <= r.lt.firstLease {
				r.fatalf("lease %d granted twice", g.lease)
			}
			r.live[g.lease] = modelLease{trial: g.payload.Trial, worker: worker, deadline: r.now.Add(tableTTL)}
		}
		if !slices.Equal(got, want) {
			r.fatalf("granted trials %v, want the oldest matching %v", got, want)
		}
		r.queue = kept
		if (len(grants) == 0) != (wake != nil) {
			r.fatalf("granted %d with wake channel %v", len(grants), wake)
		}
		r.wake = wake
	}}
}

func (r *tableRig) matches(tenant string, k int, experiments []string) bool {
	e := r.exp[k]
	if r.paused[""] || r.paused[e] {
		return false
	}
	if tenant != "" && TenantOf(e) != tenant {
		return false
	}
	return len(experiments) == 0 || slices.Contains(experiments, e)
}

// report sends the worker a reports frame naming the leases pick
// chooses: which entries the table accepts is the model's to say, and
// every rejected entry's lease, if live, must stay where it was.
func report(worker, what string, pick func(r *tableRig) []uint64) tableStep {
	return tableStep{"report " + worker + " " + what, func(r *tableRig) {
		ids := pick(r)
		if len(ids) == 0 {
			r.fatalf("nothing to report")
		}
		rb := binReports{}
		for _, id := range ids {
			rb.Reports = append(rb.Reports, exec.BinResponse{ID: id, Loss: float64(id)})
		}
		accepted, settled := make([]bool, len(ids)), make([]*task, len(ids))
		freed, _ := r.lt.settle(worker, &rb, true, accepted, settled)
		n := 0
		for i, id := range ids {
			l, ok := r.live[id]
			want := ok && l.worker == worker
			if accepted[i] != want || (settled[i] != nil) != want {
				r.fatalf("lease %d: accepted %v, want %v", id, accepted[i], want)
			}
			if want {
				n++
				delete(r.live, id)
				r.gone = append(r.gone, id)
				if settled[i].payload.Trial != l.trial {
					r.fatalf("lease %d settled trial %d, want %d", id, settled[i].payload.Trial, l.trial)
				}
			} else if ok {
				if t := r.lt.leases[id]; t == nil || t.worker != l.worker {
					r.fatalf("a rejected report of lease %d moved it", id)
				}
			}
		}
		if freed != n {
			r.fatalf("freed %d, want %d", freed, n)
		}
		r.answer(settled, func(t *task) Outcome { return Outcome{Loss: float64(t.leaseID)} })
	}}
}

// leasesOf returns the worker's live leases, oldest first.
func (r *tableRig) leasesOf(worker string) []uint64 {
	var ids []uint64
	for id, l := range r.live {
		if l.worker == worker {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

func oldestOf(worker string) func(*tableRig) []uint64 {
	return func(r *tableRig) []uint64 { return r.leasesOf(worker)[:1] }
}

func twiceOldestOf(worker string) func(*tableRig) []uint64 {
	return func(r *tableRig) []uint64 { id := r.leasesOf(worker)[0]; return []uint64{id, id} }
}

func lastGone(r *tableRig) []uint64 { return r.gone[len(r.gone)-1:] }

// beat heartbeats every lease the worker holds plus one the table never
// granted.
func beat(worker string) tableStep {
	return tableStep{"heartbeat " + worker, func(r *tableRig) {
		ids := append(r.leasesOf(worker), 1)
		expired := r.lt.extend(worker, ids, r.now)
		if !slices.Equal(expired, []uint64{1}) {
			r.fatalf("heartbeat of %v answered expired %v, want [1]", ids, expired)
		}
		for _, id := range ids[:len(ids)-1] {
			l := r.live[id]
			l.deadline = r.now.Add(tableTTL)
			r.live[id] = l
		}
	}}
}

func advance(d time.Duration) tableStep {
	return tableStep{"advance " + d.String(), func(r *tableRig) { r.now = r.now.Add(d) }}
}

// sweep checks that the pass expires exactly the model's overdue
// leases, in lease-ID order.
func sweep() tableStep {
	return tableStep{"sweep", func(r *tableRig) {
		dead := r.lt.sweep(r.now)
		var want, got []uint64
		for id, l := range r.live {
			if r.now.After(l.deadline) {
				want = append(want, id)
			}
		}
		slices.Sort(want)
		for _, t := range dead {
			got = append(got, t.leaseID)
		}
		if !slices.Equal(got, want) {
			r.fatalf("swept leases %v, want %v in lease order", got, want)
		}
		for _, id := range want {
			delete(r.live, id)
			r.gone = append(r.gone, id)
		}
		r.answer(dead, answerFailed)
	}}
}

func cancel(exp string) tableStep {
	return tableStep{fmt.Sprintf("cancel %q", exp), func(r *tableRig) {
		canceled := r.lt.cancel(exp)
		var want, got []int
		kept := r.queue[:0:0]
		for _, k := range r.queue {
			if exp == "" || r.exp[k] == exp {
				want = append(want, k)
			} else {
				kept = append(kept, k)
			}
		}
		for _, t := range canceled {
			got = append(got, t.payload.Trial)
		}
		if !slices.Equal(got, want) {
			r.fatalf("canceled %v, want %v", got, want)
		}
		r.queue = kept
		r.answer(canceled, answerFailed)
	}}
}

func pause(exp string) tableStep {
	return tableStep{fmt.Sprintf("pause %q", exp), func(r *tableRig) {
		r.lt.paused[exp] = true
		r.paused[exp] = true
	}}
}

func resume(exp string) tableStep {
	return tableStep{fmt.Sprintf("resume %q", exp), func(r *tableRig) {
		delete(r.lt.paused, exp)
		delete(r.paused, exp)
		r.lt.wakeAll()
		r.wake = nil
	}}
}

func drain(on bool) tableStep {
	return tableStep{fmt.Sprintf("drain %v", on), func(r *tableRig) { r.lt.draining, r.draining = on, on }}
}

func leaseCap(n int) tableStep {
	return tableStep{fmt.Sprintf("cap %d", n), func(r *tableRig) { r.lt.maxLeases, r.cap = n, n }}
}

// closeTable checks that close hands back the queue in order, then the
// leases in lease-ID order.
func closeTable() tableStep {
	return tableStep{"close", func(r *tableRig) {
		orphans := r.lt.close()
		var leases []uint64
		for id := range r.live {
			leases = append(leases, id)
		}
		slices.Sort(leases)
		want := slices.Clone(r.queue)
		for _, id := range leases {
			want = append(want, r.live[id].trial)
		}
		var got []int
		for _, t := range orphans {
			got = append(got, t.payload.Trial)
		}
		if !slices.Equal(got, want) {
			r.fatalf("close flushed %v, want the queue then the leases by ID: %v", got, want)
		}
		r.queue, r.live, r.closed = nil, map[uint64]modelLease{}, true
		r.answer(orphans, answerFailed)
	}}
}

// check holds the table to the model and the invariants.
func (r *tableRig) check() {
	c := r.lt.snapshot()
	if !r.closed && c.Granted != c.Accepted+c.Expired+c.Leased {
		r.fatalf("granted %d != accepted %d + expired %d + leased %d", c.Granted, c.Accepted, c.Expired, c.Leased)
	}
	if r.closed && (c.Pending != 0 || c.Leased != 0) {
		r.fatalf("closed with %d pending and %d leased", c.Pending, c.Leased)
	}
	for k, outs := range r.answers {
		if len(outs) > 1 {
			r.fatalf("trial %d answered %d times: %+v", k, len(outs), outs)
		}
	}
	var queued []int
	for _, t := range r.lt.pending[r.lt.pendingHead:] {
		queued = append(queued, t.payload.Trial)
	}
	if !slices.Equal(queued, r.queue) && len(queued)+len(r.queue) > 0 {
		r.fatalf("queue holds %v, want %v", queued, r.queue)
	}
	if len(r.lt.leases) != len(r.live) {
		r.fatalf("%d leases, want %d", len(r.lt.leases), len(r.live))
	}
	for id, l := range r.live {
		if t := r.lt.leases[id]; t == nil || t.payload.Trial != l.trial || t.worker != l.worker || !t.deadline.Equal(l.deadline) {
			r.fatalf("lease %d is %+v, want %+v", id, t, l)
		}
	}
}

// TestLeaseTableSequences runs call sequences on a lone lease table —
// no socket, no sleep, the clock a value — and holds it after every
// step to a model and to the exactly-once invariants: Granted =
// Accepted + Expired + Leased until Close; every task answered at most
// once, and exactly once once Close has run; matching jobs granted in
// FIFO order; a rejected report leaving its lease where it was;
// nothing pending or leased after Close. Expiries and Close answer
// leases in lease-ID order.
func TestLeaseTableSequences(t *testing.T) {
	cases := []struct {
		name  string
		steps []tableStep
	}{
		{"settle, duplicate and foreign reports", []tableStep{
			register("w1", ""), register("w2", ""),
			submit("a", 3), submit("b", 2),
			grant("w1", 3), grant("w2", 1, "b"),
			report("w1", "ok", oldestOf("w1")),
			report("w1", "twice in a frame", twiceOldestOf("w1")),
			report("w1", "already settled", lastGone),
			report("w2", "w1's lease", oldestOf("w1")),
			beat("w1"), beat("w2"),
			grant("w1", 8), grant("w2", 8),
			closeTable(),
		}},
		{"heartbeats, expiry and stale reports", []tableStep{
			register("w1", ""), register("w2", ""),
			submit("a", 9),
			grant("w1", 4), grant("w2", 4),
			advance(tableTTL * 3 / 4), beat("w1"),
			advance(tableTTL / 2), sweep(),
			report("w2", "expired", lastGone),
			grant("w2", 8), report("w2", "ok", oldestOf("w2")),
			advance(2 * tableTTL), sweep(),
			grant("w1", 8),
			closeTable(),
		}},
		{"four expire in one sweep, four flushed by close", []tableStep{
			register("w1", ""), register("w2", ""),
			submit("a", 10),
			grant("w2", 5), grant("w1", 5),
			advance(tableTTL / 2), beat("w1"),
			advance(tableTTL * 3 / 4), sweep(),
			report("w1", "ok", oldestOf("w1")),
			grant("w1", 3),
			closeTable(),
		}},
		{"pause, cap, cancel and drain", []tableStep{
			register("w1", ""),
			submit("a", 2), submit("b", 2), submit("c", 2),
			pause("a"), leaseCap(3), grant("w1", 4),
			grant("w1", 4), report("w1", "ok", oldestOf("w1")),
			grant("w1", 4), cancel("c"),
			drain(true), grant("w1", 4), submit("b", 1),
			drain(false), resume("a"), leaseCap(0),
			grant("w1", 8),
			pause(""), submit("a", 1), grant("w1", 8), resume(""),
			submit("c", 2), cancel(""),
			closeTable(),
		}},
		{"tenant-scoped worker and restrictions", []tableStep{
			register("w1", "t1"), register("w2", ""),
			submit("t2/y", 2), submit("t1/x", 2), submit("t1/z", 1),
			grant("w1", 8, "t1/z", "t2/y"), grant("w1", 8),
			grant("w2", 1, "t1/x"), grant("w2", 8),
			report("w1", "w2's lease", oldestOf("w2")),
			closeTable(),
		}},
		{"unknown worker, and calls after close", []tableStep{
			register("w1", ""),
			submit("a", 2), grant("w9", 2), grant("w1", 1),
			closeTable(),
			submit("a", 2), grant("w1", 1), sweep(),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTableRig(t)
			for i, s := range tc.steps {
				r.at = fmt.Sprintf("step %d (%s)", i, s.name)
				s.do(r)
				r.check()
			}
			if !r.closed {
				t.Fatal("a sequence must end closed")
			}
			for k := 1; k <= r.trials; k++ {
				if n := len(r.answers[k]); n != 1 {
					t.Fatalf("trial %d answered %d times by the end", k, n)
				}
			}
		})
	}
}
