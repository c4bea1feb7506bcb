package remote

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
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

// dedupCases are lease-ID sequences of one frame. accept is the verdict
// of decodeGrants and decodeReports on a frame carrying them in that
// order, queued what fetchLoop's own check lets through to the slots.
// Both columns were recorded by running this table against the
// map-per-frame checks of the commit before leaseDedup (every case
// passed there unchanged); the test also holds them to a set probed
// from the first entry, which is what those checks were.
var dedupCases = []struct {
	name   string
	ids    []uint64
	accept bool
	queued []uint64
}{
	{"single entry", []uint64{7}, true, []uint64{7}},
	{"ascending", []uint64{1, 2, 3, 9}, true, []uint64{1, 2, 3, 9}},
	{"duplicate adjacent", []uint64{1, 2, 2, 3}, false, []uint64{1, 2, 3}},
	{"duplicate adjacent at the head", []uint64{4, 4}, false, []uint64{4}},
	{"duplicate far apart", ids1to40then1(), false, ids1to40then1()[:40]},
	{"duplicate after a descending run", []uint64{9, 8, 7, 6, 8}, false, []uint64{9, 8, 7, 6}},
	{"duplicate of the dip", []uint64{1, 5, 3, 4, 3}, false, []uint64{1, 5, 3, 4}},
	{"duplicate of the peak after a dip", []uint64{1, 5, 3, 5}, false, []uint64{1, 5, 3}},
	{"duplicate of the first after a descent", []uint64{5, 9, 3, 5}, false, []uint64{5, 9, 3}},
	{"strictly descending", []uint64{9, 8, 7, 6, 5}, true, []uint64{9, 8, 7, 6, 5}},
	{"dip, then past the peak", []uint64{1, 5, 3, 4, 6}, true, []uint64{1, 5, 3, 4, 6}},
	{"lease zero twice", []uint64{0, 0}, false, []uint64{0}},
	{"lease zero after others", []uint64{3, 0, 2}, true, []uint64{3, 0, 2}},
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
// frame: a repeat anywhere rejects a grants or reports frame whole,
// order alone never does, and the fetcher queues first occurrences only.
func TestDuplicateLeaseVerdictsUnchanged(t *testing.T) {
	for _, tc := range dedupCases {
		t.Run(tc.name, func(t *testing.T) {
			kept, unique := firstOccurrences(tc.ids)
			if unique != tc.accept || !reflect.DeepEqual(kept, tc.queued) {
				t.Fatalf("table disagrees with the reference set probe: accept %v, queued %v", unique, kept)
			}
			var g binGrants
			var rb binReports
			for _, id := range tc.ids {
				g.Grants = append(g.Grants, binGrant{Table: 1, Job: exec.BinRequest{ID: id, Trial: 1, To: 2, Vec: []float64{0.5}}})
				rb.Reports = append(rb.Reports, exec.BinResponse{ID: id, Loss: 0.5})
			}
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
			if queued := fetchThroughStub(t, tc.ids); !reflect.DeepEqual(queued, tc.queued) {
				t.Errorf("fetchLoop queued %v, want %v", queued, tc.queued)
			}
		})
	}
}

// fetchThroughStub runs the agent's fetcher against a stub stream that
// answers its first poll with one grant per id — handed over past the
// frame decoder, which would have refused a repeat — and the second with
// "the run is over", and returns the leases the fetcher queued.
func fetchThroughStub(t *testing.T, ids []uint64) []uint64 {
	t.Helper()
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	bs := &binStream{
		c:      near,
		bw:     bufio.NewWriter(io.Discard), // the polls go nowhere
		grants: make(chan streamBatch, 1),
		dead:   make(chan struct{}),
	}
	a := &agent{
		o:        AgentOptions{Slots: 1, RegisterTimeout: time.Second},
		client:   &http.Client{},
		worker:   "w1",
		batch:    1, // polls again while any of the 65 places is free
		prefetch: 64,
		held:     make(map[uint64]*heldLease),
		kick:     make(chan struct{}, 1),
		jobs:     make(chan *heldLease, 65),
		bs:       bs,
	}
	a.server.Store("http://stub.invalid")
	batch := streamBatch{seq: 1}
	for _, id := range ids {
		batch.leases = append(batch.leases, heldLease{job: exec.BinRequest{ID: id}})
	}
	bs.grants <- batch
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fetched := make(chan error, 1)
	go func() { fetched <- a.fetchLoop(ctx) }()
	select {
	case bs.grants <- streamBatch{done: true}: // taken once the first batch was
	case <-ctx.Done():
		t.Fatal("fetcher never took the first batch")
	}
	if err := <-fetched; err != nil || !a.runOver.Load() {
		t.Fatalf("fetchLoop ended with %v, told the run is over: %v", err, a.runOver.Load())
	}
	var queued []uint64
	for h := range a.jobs {
		queued = append(queued, h.job.ID)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.held) != len(queued) || a.active != len(queued) {
		t.Errorf("fetcher holds %d leases, %d active, for %d queued jobs", len(a.held), a.active, len(queued))
	}
	return queued
}
