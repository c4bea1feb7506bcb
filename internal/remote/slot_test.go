package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
)

// An executor slot fills one config map, one trial context and one
// checkpoint buffer for every job it runs (exec.Slot, heldLease.ckpt).
// These tests are about what that sharing must never do; none counts
// allocations, so all of them run under the race detector too.

// submitAll queues the payloads on srv in order and returns their
// outcomes in the same order once every one has settled.
func submitAll(t *testing.T, srv *Server, payloads []JobPayload) []Outcome {
	t.Helper()
	out := make([]Outcome, len(payloads))
	var settled sync.WaitGroup
	settled.Add(len(payloads))
	for i, p := range payloads {
		srv.Submit(p, func(o Outcome) {
			out[i] = o
			settled.Done()
		})
	}
	settled.Wait()
	return out
}

// TestAgentSlotNoStaleKeysAcrossTables alternates two experiments whose
// tables share one name and differ in the other on a single slot: every
// objective call must see exactly its own experiment's keys with its own
// job's values, whatever the slot's map held for the job before.
func TestAgentSlotNoStaleKeysAcrossTables(t *testing.T) {
	srv, err := NewServer(Options{BatchSize: 8, Prefetch: 16, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string][]string{"a": {"lr", "momentum"}, "b": {"lr", "depth"}}
	const jobs = 64
	want := make(map[int]map[string]float64, jobs)
	payloads := make([]JobPayload, jobs)
	for i := range payloads {
		exp := "a"
		if i%2 == 1 {
			exp = "b"
		}
		names := tables[exp]
		vec := []float64{float64(i), float64(i) + 0.5}
		want[i] = map[string]float64{names[0]: vec[0], names[1]: vec[1]}
		payloads[i] = JobPayload{Experiment: exp, Trial: i, Names: names, Vec: vec, To: 1}
	}
	resolve := func(exp string) (exec.Objective, error) {
		return func(ctx context.Context, cfg map[string]float64, _, _ float64, _ interface{}) (float64, interface{}, error) {
			id, ok := exec.TrialIDFromContext(ctx)
			if !ok || !reflect.DeepEqual(cfg, want[id]) {
				return 0, nil, fmt.Errorf("experiment %s trial %d (in context: %v) saw config %v, want %v", exp, id, ok, cfg, want[id])
			}
			return float64(id), nil, nil
		}, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agentDone := make(chan error, 1)
	go func() { agentDone <- ServeAgent(ctx, AgentOptions{Server: srv.URL(), Slots: 1, Resolve: resolve}) }()
	for i, o := range submitAll(t, srv, payloads) {
		if o.Failed || o.Err != "" || o.Loss != float64(i) {
			t.Errorf("job %d settled %+v", i, o)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-agentDone; err != nil {
		t.Fatalf("agent: %v", err)
	}
}

// TestAgentCheckpointShapesRoundTrip: the record's inline buffer is a
// fast path for float checkpoints, not a limit. A float that prints
// longer than the buffer and a checkpoint that is no float at all reach
// the server as encoding/json writes them, and come back to the next
// job of the trial as the values they were.
func TestAgentCheckpointShapesRoundTrip(t *testing.T) {
	srv, err := NewServer(Options{BatchSize: 4, Prefetch: 4, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	states := []interface{}{
		0.125,
		-1.2345678901234567e-300, // 24 bytes: fills the buffer exactly
		-1.2345678901234567e-6,   // 25 bytes (no exponent above 1e-6): does not fit
		map[string]interface{}{"epoch": 3.0, "w": []interface{}{1.0, 2.0}},
	}
	obj := func(ctx context.Context, _ map[string]float64, from, _ float64, state interface{}) (float64, interface{}, error) {
		id, _ := exec.TrialIDFromContext(ctx)
		if from > 0 && !reflect.DeepEqual(state, states[id]) {
			return 0, nil, fmt.Errorf("trial %d resumed from %#v, want %#v", id, state, states[id])
		}
		return from, states[id], nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agentDone := make(chan error, 1)
	go func() {
		agentDone <- ServeAgent(ctx, AgentOptions{Server: srv.URL(), Slots: 2,
			Resolve: func(string) (exec.Objective, error) { return obj, nil }})
	}()
	names := []string{"lr"}
	first := make([]JobPayload, len(states))
	for i := range first {
		first[i] = JobPayload{Trial: i, Names: names, Vec: []float64{0.1}, To: 1}
	}
	second := make([]JobPayload, len(states))
	for i, o := range submitAll(t, srv, first) {
		blob, err := json.Marshal(states[i])
		if err != nil {
			t.Fatal(err)
		}
		if o.Failed || o.Err != "" || string(o.State) != string(blob) {
			t.Fatalf("trial %d settled %+v (state %s), want state %s", i, o, o.State, blob)
		}
		second[i] = JobPayload{Trial: i, Names: names, Vec: []float64{0.1}, From: 1, To: 2, State: o.State}
	}
	for i, o := range submitAll(t, srv, second) {
		if o.Failed || o.Err != "" || o.Loss != 1 {
			t.Errorf("trial %d's resumed job settled %+v", i, o)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-agentDone; err != nil {
		t.Fatalf("agent: %v", err)
	}
}

// TestSlotReuseAfterMidJobExpiry: a lease that expires while its job
// trains cancels that job's context, which is the slot's own. The slot
// must then give the next job a live context carrying that job's trial
// ID — not the cancelled one, not the previous ID — and report only the
// job whose lease still stands.
func TestSlotReuseAfterMidJobExpiry(t *testing.T) {
	type call struct {
		id     int
		hasID  bool
		ctxErr error
		cfg    map[string]float64
	}
	started := make(chan struct{})
	calls := make(chan call, 1)
	obj := func(ctx context.Context, cfg map[string]float64, _, _ float64, _ interface{}) (float64, interface{}, error) {
		id, ok := exec.TrialIDFromContext(ctx)
		if id == 1 {
			close(started)
			<-ctx.Done() // trains until its lease is taken away
			return 0, nil, ctx.Err()
		}
		calls <- call{id, ok, ctx.Err(), map[string]float64{"lr": cfg["lr"], "len": float64(len(cfg))}}
		return float64(id), 0.5, nil
	}
	a := &agent{
		o:       AgentOptions{Slots: 1, Resolve: func(string) (exec.Objective, error) { return obj, nil }},
		held:    make(map[uint64]*heldLease),
		kick:    make(chan struct{}, 1),
		jobs:    make(chan *heldLease, 2),
		reports: make(chan *heldLease, 2),
	}
	table := &clientTable{params: []string{"lr"}}
	leases := []heldLease{
		{job: exec.BinRequest{ID: 1, Trial: 1, To: 1, Vec: []float64{0.1}}, table: table, recv: time.Now()},
		{job: exec.BinRequest{ID: 2, Trial: 2, To: 1, Vec: []float64{0.2}}, table: table, recv: time.Now()},
	}
	for i := range leases {
		a.held[leases[i].job.ID] = &leases[i]
		a.active++
		a.jobs <- &leases[i]
	}
	close(a.jobs)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	slotDone := make(chan struct{})
	go func() { defer close(slotDone); a.slotLoop(ctx) }()

	<-started
	a.markExpired([]uint64{1}) // what a heartbeat ack listing the lease does
	select {
	case c := <-calls:
		want := call{id: 2, hasID: true, cfg: map[string]float64{"lr": 0.2, "len": 1}}
		if !reflect.DeepEqual(c, want) {
			t.Fatalf("the job after the expired one saw %+v, want %+v", c, want)
		}
	case <-ctx.Done():
		t.Fatal("the slot never ran the job behind the expired one")
	}
	<-slotDone
	if h := <-a.reports; h != &leases[1] || h.resp.Loss != 2 || string(h.resp.State) != "0.5" || h.resp.IsErr {
		t.Fatalf("reported %+v, want lease 2's own response", h.resp)
	}
	select {
	case h := <-a.reports:
		t.Fatalf("the forfeited lease %d was handed to the reporter", h.job.ID)
	default:
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !leases[0].gone || leases[1].gone || !leases[1].done || len(a.held) != 1 || a.active != 0 {
		t.Fatalf("after the slot drained: lease 1 gone=%v, lease 2 gone=%v done=%v, %d held, %d active",
			leases[0].gone, leases[1].gone, leases[1].done, len(a.held), a.active)
	}
}
