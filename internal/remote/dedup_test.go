package remote

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/wire"
)

// ids1to40then1 is forty ascending leases and then the first again: a
// duplicate far from its original.
func ids1to40then1() []uint64 {
	ids := make([]uint64, 0, 41)
	for id := uint64(1); id <= 40; id++ {
		ids = append(ids, id)
	}
	return append(ids, 1)
}

// dedupCases are lease-ID sequences of one frame, and the verdict of
// decodeGrants and decodeReports on a frame carrying them in that order.
// The verdicts were recorded by running this table against the
// map-per-frame checks of the commit before leaseDedup (every case
// passed there unchanged); the test also holds them to a set probed
// from the first entry, which is what those checks were.
var dedupCases = []struct {
	name   string
	ids    []uint64
	accept bool
}{
	{"single entry", []uint64{7}, true},
	{"ascending", []uint64{1, 2, 3, 9}, true},
	{"duplicate adjacent", []uint64{1, 2, 2, 3}, false},
	{"duplicate adjacent at the head", []uint64{4, 4}, false},
	{"duplicate far apart", ids1to40then1(), false},
	{"duplicate after a descending run", []uint64{9, 8, 7, 6, 8}, false},
	{"duplicate of the dip", []uint64{1, 5, 3, 4, 3}, false},
	{"duplicate of the peak after a dip", []uint64{1, 5, 3, 5}, false},
	{"duplicate of the first after a descent", []uint64{5, 9, 3, 5}, false},
	{"strictly descending", []uint64{9, 8, 7, 6, 5}, true},
	{"dip, then past the peak", []uint64{1, 5, 3, 4, 6}, true},
	{"lease zero twice", []uint64{0, 0}, false},
	{"lease zero after others", []uint64{3, 0, 2}, true},
}

// firstOccurrences is the reference: ids with every repeat dropped, and
// whether there was none.
func firstOccurrences(ids []uint64) (kept []uint64, unique bool) {
	seen := make(map[uint64]bool)
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			kept = append(kept, id)
		}
	}
	return kept, len(kept) == len(ids)
}

// TestDuplicateLeaseVerdictsUnchanged holds every duplicate-lease check
// on the binary wire to the verdicts it gave when each probed a set per
// frame: a repeat anywhere rejects a grants or reports frame whole, and
// order alone never does.
func TestDuplicateLeaseVerdictsUnchanged(t *testing.T) {
	for _, tc := range dedupCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, unique := firstOccurrences(tc.ids); unique != tc.accept {
				t.Fatalf("table disagrees with the reference set probe: accept %v", unique)
			}
			g, rb := leaseFrames(tc.ids)
			oneParam := func(uint64) (int, bool) { return 1, true }
			got, err := decodeGrants(wire.NewReader(appendGrants(nil, g)[1:]), oneParam)
			if (err == nil) != tc.accept {
				t.Errorf("decodeGrants: err %v, want accept %v", err, tc.accept)
			}
			if err == nil && len(got.Grants) != len(tc.ids) {
				t.Errorf("decodeGrants kept %d of %d grants", len(got.Grants), len(tc.ids))
			}
			back, err := decodeReports(wire.NewReader(appendReports(nil, rb)[1:]))
			if (err == nil) != tc.accept {
				t.Errorf("decodeReports: err %v, want accept %v", err, tc.accept)
			}
			if err == nil && len(back.Reports) != len(tc.ids) {
				t.Errorf("decodeReports kept %d of %d reports", len(back.Reports), len(tc.ids))
			}
			// The reader-owned forms, decoding into values that held a
			// longer frame before, answer the same.
			used := binGrants{Seq: 9, Done: true, Tables: make([]binTable, 3), Grants: make([]binGrant, 64)}
			if err := used.decode(wire.NewReader(appendGrants(nil, g)[1:]), oneParam); (err == nil) != tc.accept {
				t.Errorf("binGrants.decode into a used value: err %v, want accept %v", err, tc.accept)
			} else if err == nil && !reflect.DeepEqual(used, got) {
				t.Errorf("binGrants.decode into a used value: %+v, into a fresh one %+v", used, got)
			}
			reused := binReports{Reports: make([]exec.BinResponse, 64), Timings: make([]JobTiming, 64)}
			if err := reused.decode(wire.NewReader(appendReports(nil, rb)[1:])); (err == nil) != tc.accept {
				t.Errorf("binReports.decode into a used value: err %v, want accept %v", err, tc.accept)
			} else if err == nil && (len(reused.Reports) != len(tc.ids) || len(reused.Timings) != len(tc.ids)) {
				t.Errorf("binReports.decode into a used value kept %d reports, %d timings of %d",
					len(reused.Reports), len(reused.Timings), len(tc.ids))
			}
		})
	}
	// A stream reader decodes every reports frame into one binReports,
	// whose duplicate set outlives the frame: what one frame put in it
	// must not count against the next.
	t.Run("one binReports, frame after frame", func(t *testing.T) {
		var reused binReports
		for _, f := range []struct {
			ids    []uint64
			accept bool
		}{
			{[]uint64{5, 9, 3}, true}, // builds the set: 3 does not ascend
			{[]uint64{3, 4}, true},
			{[]uint64{4, 3}, true}, // checks 3 against the set
			{[]uint64{3, 4, 3}, false},
			{[]uint64{9, 5}, true},
			{[]uint64{1, 1}, false},
			{[]uint64{2, 1}, true},
		} {
			_, rb := leaseFrames(f.ids)
			if err := reused.decode(wire.NewReader(appendReports(nil, rb)[1:])); (err == nil) != f.accept {
				t.Fatalf("frame %v after the ones before it: err %v, want accept %v", f.ids, err, f.accept)
			}
		}
	})
}

// leaseFrames is a grants frame and a reports frame naming ids in order.
func leaseFrames(ids []uint64) (binGrants, binReports) {
	var g binGrants
	var rb binReports
	for _, id := range ids {
		g.Grants = append(g.Grants, binGrant{Table: 1, Job: exec.BinRequest{ID: id, Trial: 1, To: 2, Vec: []float64{0.5}}})
		rb.Reports = append(rb.Reports, exec.BinResponse{ID: id, Loss: 0.5})
	}
	return g, rb
}

// TestRepeatedLeaseGrantEndsTheStream serves an agent's poll, over a
// live stream, a grants frame naming one lease twice: the reader refuses
// it whole and ends the stream, so the fetcher queues nothing and holds
// nothing, and on its redial learns the run is over.
func TestRepeatedLeaseGrantEndsTheStream(t *testing.T) {
	over := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent) // the stream handshake's "the run is over"
	}))
	defer over.Close()
	near, far := net.Pipe()
	defer far.Close()
	a := &agent{
		o:        AgentOptions{Slots: 1, RegisterTimeout: 5 * time.Second},
		client:   &http.Client{},
		worker:   "w1",
		prefetch: 4,
		held:     make(map[uint64]*heldLease),
		kick:     make(chan struct{}, 1),
		jobs:     make(chan *heldLease, 5),
	}
	a.server.Store(over.URL)
	bs := &binStream{
		c: near, br: bufio.NewReader(near), bw: bufio.NewWriter(near), born: time.Now(),
		grants: make(chan streamBatch, 1), acks: make(chan binReportAck, ackWindow),
		tables: make(map[uint64]*clientTable), dead: make(chan struct{}),
		onExpired: a.markExpired, spare: a.spare,
	}
	a.setStream(bs)
	go bs.reader()
	go func() {
		br := bufio.NewReader(far)
		body, err := wire.ReadFrame(br, nil)
		if err != nil || body[0] != frameLease {
			t.Errorf("stub: no lease poll: %v", err)
			return
		}
		q, err := decodeLeaseReq(wire.NewReader(body[1:]))
		if err != nil {
			t.Errorf("stub: lease poll: %v", err)
			return
		}
		g := binGrants{Seq: q.Seq, Tables: []binTable{{Index: 0, Params: []string{"lr"}}}}
		for _, id := range []uint64{6, 7, 7} {
			g.Grants = append(g.Grants, binGrant{Job: exec.BinRequest{ID: id, Trial: int(id), To: 1, Vec: []float64{0.5}}})
		}
		_, _ = far.Write(framed(appendGrants(nil, g)))
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.fetchLoop(ctx); err != nil || !a.runOver.Load() {
		t.Fatalf("fetchLoop ended with %v, told the run is over: %v", err, a.runOver.Load())
	}
	if bs.alive() {
		t.Fatal("the stream that carried the repeated lease is still up")
	}
	for h := range a.jobs {
		t.Errorf("lease %d queued from a refused frame", h.job.ID)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.held) != 0 || a.active != 0 {
		t.Errorf("fetcher holds %d leases, %d active, after a refused frame", len(a.held), a.active)
	}
}
