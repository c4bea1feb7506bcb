package remote

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/wire"
)

// TestStaleLeaseNumberReusedByFreshRegistration is the sibling of
// TestReregistrationPurgesStalePrefetchedWork for the case that test's
// comment warns of: after the re-registration the server grants lease
// numbers the worker's stale entries still use — while one stale job is
// queued, one is running and one sits completed in the report buffer.
// Every stage settles through its own record (heldLease.gone), so the
// stale work must neither be reported nor, when it winds down, take the
// fresh entry of the same number out of the lease table or out of the
// pipeline's capacity count; each fresh job settles exactly once.
//
// The agent is assembled by hand so the test can look at its records;
// the stub speaks the real frames over a pipe, and the test decides
// when each poll is answered.
func TestStaleLeaseNumberReusedByFreshRegistration(t *testing.T) {
	reg := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"v":%d,"worker":"w2","leaseTTLms":60000}`, ProtocolVersion)
	}))
	defer reg.Close()

	// Every job reports its trial number as its loss. Stale trial 2 is
	// the one caught running: it starts, then ignores its cancellation
	// until the test lets it go.
	var execMu sync.Mutex
	executed := make(map[int]int)
	started2, release2 := make(chan struct{}), make(chan struct{})
	resolve := func(string) (exec.Objective, error) {
		return func(ctx context.Context, _ map[string]float64, _, _ float64, _ interface{}) (float64, interface{}, error) {
			id, _ := exec.TrialIDFromContext(ctx)
			execMu.Lock()
			executed[id]++
			execMu.Unlock()
			if id == 2 {
				close(started2)
				<-release2
			}
			return float64(id), nil, nil
		}, nil
	}

	near, far := net.Pipe()
	defer far.Close()
	a := &agent{
		o:        AgentOptions{Slots: 1, RegisterTimeout: 5 * time.Second, Resolve: resolve},
		client:   &http.Client{},
		home:     reg.URL,
		worker:   "w1",
		batch:    3,
		prefetch: 8,
		flushInt: time.Hour, // a completed job waits for batch-mates
		ackWait:  reportAckWait,
		held:     make(map[uint64]*heldLease),
		kick:     make(chan struct{}, 1),
		jobs:     make(chan *heldLease, 9),
		reports:  make(chan *heldLease, 12),
	}
	a.server.Store(reg.URL)
	bs := &binStream{
		c: near, br: bufio.NewReader(near), bw: bufio.NewWriter(near), born: time.Now(),
		grants: make(chan streamBatch, 1), acks: make(chan binReportAck, ackWindow),
		tables: make(map[uint64]*clientTable), dead: make(chan struct{}),
		onExpired: a.markExpired,
	}
	a.setStream(bs)
	go bs.reader()

	// The stub server: lease polls go to the test, report frames are
	// recorded and acked at once.
	type reported struct {
		lease uint64
		loss  float64
	}
	var stubMu sync.Mutex
	var posted []reported
	polls := make(chan binLeaseReq, 4)
	settled := make(chan int, 8) // entries per reports frame
	go func() {
		br := bufio.NewReader(far)
		for {
			body, err := wire.ReadFrame(br, nil)
			if err != nil {
				return
			}
			r := wire.NewReader(body[1:])
			switch body[0] {
			case frameLease:
				q, err := decodeLeaseReq(r)
				if err != nil {
					t.Errorf("stub: lease poll: %v", err)
					return
				}
				polls <- q
			case frameReports:
				rb, err := decodeReports(r)
				if err != nil {
					t.Errorf("stub: reports frame: %v", err)
					return
				}
				stubMu.Lock()
				for _, e := range rb.Reports {
					posted = append(posted, reported{e.ID, e.Loss})
				}
				stubMu.Unlock()
				settled <- len(rb.Reports)
				accepted := make([]bool, len(rb.Reports))
				for i := range accepted {
					accepted[i] = true
				}
				if _, err := far.Write(framed(appendReportAck(nil, binReportAck{Seq: rb.Seq, Accepted: accepted}))); err != nil {
					return
				}
			}
		}
	}()
	grant := func(seq uint64, firstTrial int) {
		t.Helper()
		g := binGrants{Seq: seq, Tables: []binTable{{Index: uint64(firstTrial), Params: []string{"momentum"}}}}
		for i := 0; i < 3; i++ {
			g.Grants = append(g.Grants, binGrant{Table: uint64(firstTrial),
				Job: exec.BinRequest{ID: uint64(i + 1), Trial: firstTrial + i, To: 2, Vec: []float64{0.5}}})
		}
		if _, err := far.Write(framed(appendGrants(nil, g))); err != nil {
			t.Fatalf("stub: writing grants: %v", err)
		}
	}
	nextPoll := func() binLeaseReq {
		t.Helper()
		select {
		case q := <-polls:
			return q
		case <-time.After(10 * time.Second):
			t.Fatal("the fetcher never polled")
			return binLeaseReq{}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var slot, reporter sync.WaitGroup
	slot.Add(1)
	go func() { defer slot.Done(); a.slotLoop(ctx) }()
	reporter.Add(1)
	go func() { defer reporter.Done(); a.reportLoop(ctx) }()
	fetched := make(chan error, 1)
	go func() { fetched <- a.fetchLoop(ctx) }()

	records := func() map[uint64]*heldLease {
		a.mu.Lock()
		defer a.mu.Unlock()
		out := make(map[uint64]*heldLease, len(a.held))
		for id, h := range a.held {
			out[id] = h
		}
		return out
	}

	// The dead generation: leases 1..3 for trials 1..3. Trial 1 completes
	// into the report buffer, trial 2 occupies the slot, trial 3 queues.
	grant(nextPoll().Seq, 1)
	<-started2
	secondPoll := nextPoll() // outstanding across the restart
	stale := records()
	a.mu.Lock()
	if len(stale) != 3 || !stale[1].done || stale[2].cancel == nil || stale[3].done || a.active != 2 {
		t.Fatalf("stale leases not buffered/running/queued: %d held, active %d", len(stale), a.active)
	}
	a.mu.Unlock()

	// The restart is noticed: the registration moves to w2 and the stale
	// generation is purged — marked, not yet released.
	if err := a.register(ctx, "w1"); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	// The restarted server numbers its leases from the same start.
	grant(secondPoll.Seq, 101)
	thirdPoll := nextPoll() // the fetcher is past the fresh batch
	fresh := records()
	a.mu.Lock()
	for id := uint64(1); id <= 3; id++ {
		if fresh[id] == nil || fresh[id] == stale[id] {
			t.Fatalf("lease %d: no fresh record took the stale one's place", id)
		}
		if !stale[id].gone || !stale[id].expired || fresh[id].gone || fresh[id].expired {
			t.Fatalf("lease %d: stale gone=%v expired=%v, fresh gone=%v expired=%v", id,
				stale[id].gone, stale[id].expired, fresh[id].gone, fresh[id].expired)
		}
	}
	if a.active != 3 {
		t.Fatalf("active = %d with three fresh jobs queued and every stale one superseded", a.active)
	}
	a.mu.Unlock()

	// Let the stale generation wind down: trial 2 returns into a
	// cancelled context, trial 3 is dropped on dequeue, trial 1's report
	// is filtered at the flush — and the fresh jobs run behind them.
	close(release2)
	for n := 0; n < 3; {
		select {
		case k := <-settled:
			n += k
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 3 fresh jobs reported", n)
		}
	}
	// The run ends as ServeAgent ends it.
	if _, err := far.Write(framed(appendGrants(nil, binGrants{Seq: thirdPoll.Seq, Done: true}))); err != nil {
		t.Fatal(err)
	}
	if err := <-fetched; err != nil {
		t.Fatalf("fetchLoop: %v", err)
	}
	slot.Wait()
	close(a.reports)
	reporter.Wait()
	bs.close()

	execMu.Lock()
	for _, trial := range []int{1, 2, 101, 102, 103} {
		if executed[trial] != 1 {
			t.Errorf("trial %d ran %d times, want once", trial, executed[trial])
		}
	}
	if executed[3] != 0 {
		t.Errorf("stale queued trial 3 ran after the re-registration")
	}
	execMu.Unlock()
	stubMu.Lock()
	sort.Slice(posted, func(i, j int) bool { return posted[i].lease < posted[j].lease })
	if want := []reported{{1, 101}, {2, 102}, {3, 103}}; fmt.Sprint(posted) != fmt.Sprint(want) {
		t.Errorf("posted (lease, loss) %v, want each fresh job once and nothing stale: %v", posted, want)
	}
	stubMu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.active != 0 || len(a.held) != 0 {
		t.Errorf("pipeline did not drain: active %d, %d leases still held", a.active, len(a.held))
	}
	// gone is exactly "not in held": with the table empty every record
	// must carry it.
	for id := uint64(1); id <= 3; id++ {
		if !stale[id].gone || !fresh[id].gone {
			t.Errorf("lease %d released without its flag: stale gone=%v, fresh gone=%v", id, stale[id].gone, fresh[id].gone)
		}
	}
}
