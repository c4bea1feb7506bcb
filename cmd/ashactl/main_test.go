package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/searchspace"
	"repro/internal/state"
	"repro/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestFormatEventGolden pins the exact tail output for every event type:
// the stream is an operator-facing (and script-facing) surface, so
// format drift should be a deliberate, reviewed change.
func TestFormatEventGolden(t *testing.T) {
	base := time.Date(2026, 8, 7, 12, 30, 45, 123e6, time.UTC).UnixMilli()
	events := []obs.Event{
		{Seq: 1, TimeMs: base, Type: obs.EventIssued, Experiment: "cifar-asha", Trial: 17, Rung: 0, Resource: 1},
		{Seq: 2, TimeMs: base + 100, Type: obs.EventCompleted, Experiment: "cifar-asha", Trial: 17, Rung: 0, Loss: 0.4375, Resource: 1},
		{Seq: 3, TimeMs: base + 200, Type: obs.EventPromoted, Experiment: "cifar-asha", Trial: 17, Rung: 1},
		{Seq: 4, TimeMs: base + 300, Type: obs.EventRungAdvance, Experiment: "cifar-asha", Rung: 1},
		{Seq: 5, TimeMs: base + 400, Type: obs.EventIncumbent, Experiment: "cifar-asha", Trial: 17, Loss: 0.25, Resource: 4},
		{Seq: 6, TimeMs: base + 500, Type: obs.EventFailed, Experiment: "synthetic-bohb", Trial: 3, Rung: 2},
		{Seq: 7, TimeMs: base + 600, Type: obs.EventIssued, Trial: 8, Rung: 0, Resource: 2},
		{Seq: 8, TimeMs: base + 700, Type: obs.EventDropped, Count: 512},
		{Seq: 9, TimeMs: base + 800, Type: "future_event", Experiment: "cifar-asha", Trial: 4},
	}
	var b strings.Builder
	for _, e := range events {
		b.WriteString(formatEvent(e))
		b.WriteByte('\n')
	}
	checkGolden(t, "tail.golden", b.String())
}

// TestFormatStatusGolden pins the status and top renderings.
func TestFormatStatusGolden(t *testing.T) {
	st := remote.AdminStatus{
		OK:       true,
		Draining: false,
		LeaseCap: 8,
		Workers:  8,
		Paused:   []string{"synthetic-bohb"},
		Counters: remote.CounterSnapshot{
			Submitted: 120, Granted: 118, Expired: 3, Accepted: 100,
			Rejected: 2, Canceled: 0, Pending: 2, Leased: 15,
			Registered: 4, EventsDropped: 0,
		},
		Experiments: []remote.ExpStatus{
			{Experiment: "synthetic-bohb", State: "paused", Issued: 40, Completed: 35, Failed: 1, Running: 4,
				BestLoss: 0.31, HasBest: true, RungCompleted: []int{30, 5}},
			{Experiment: "cifar-asha", State: "running", Issued: 80, Completed: 65, Failed: 2, Running: 11,
				BestLoss: 0.125, HasBest: true, RungCompleted: []int{48, 12, 5}},
			{Experiment: "warmup", State: "done", Issued: 5, Completed: 5},
		},
	}
	checkGolden(t, "status.golden", formatStatus(st))
	checkGolden(t, "top.golden", formatTop(st))
}

// TestFormatLatencyGolden pins the latency summary against a scrape
// built from real histograms — the same WriteProm/ParseProm round trip
// the command performs against a live server.
func TestFormatLatencyGolden(t *testing.T) {
	var queue, exec, settle, rtt, expExec obs.Histogram
	for i := 0; i < 90; i++ {
		queue.Observe(2 * time.Millisecond)
		exec.Observe(80 * time.Millisecond)
		expExec.Observe(80 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		exec.Observe(2 * time.Second)
		expExec.Observe(2 * time.Second)
	}
	settle.Observe(300 * time.Microsecond)
	rtt.Observe(1500 * time.Microsecond)
	var b strings.Builder
	queue.WriteProm(&b, "asha_queue_wait_seconds", nil)
	exec.WriteProm(&b, "asha_exec_seconds", nil)
	settle.WriteProm(&b, "asha_report_settle_seconds", nil)
	rtt.WriteProm(&b, "asha_heartbeat_rtt_seconds", nil)
	expExec.WriteProm(&b, "asha_experiment_exec_seconds", []obs.Label{{Name: "experiment", Value: "cifar-asha"}})
	checkGolden(t, "latency.golden", formatLatency(obs.ParseProm(b.String())))
}

// TestFormatTraceGolden pins the trace rendering.
func TestFormatTraceGolden(t *testing.T) {
	base := time.Date(2026, 8, 7, 12, 30, 45, 123e6, time.UTC).UnixMilli()
	spans := []remote.JobSpan{
		{Experiment: "cifar-asha", Trial: 17, Rung: 1, Lease: 42, Worker: "w1",
			GrantUnixMs: base - 500, SettleUnixMs: base,
			QueueUs: 1200, DwellUs: 350, ExecUs: 480000, BufUs: 900, SettleUs: 210},
		{Experiment: "cifar-asha", Trial: 9, Rung: 0, Lease: 41, Worker: "w2",
			GrantUnixMs: base - 9000, SettleUnixMs: base - 100,
			QueueUs: 800, DwellUs: 120, ExecUs: 8400000, BufUs: 300, SettleUs: 95, Straggler: true},
		{Trial: 3, Rung: 0, Lease: 40, Worker: "w1",
			GrantUnixMs: base - 2000, SettleUnixMs: base - 200,
			QueueUs: 400, ExecUs: 1700000, Err: true},
	}
	checkGolden(t, "trace.golden", formatTrace(128, spans))
}

// fakeControl records control-plane calls and serves a fixed status.
type fakeControl struct {
	mu    sync.Mutex
	calls []string
}

func (f *fakeControl) record(s string) {
	f.mu.Lock()
	f.calls = append(f.calls, s)
	f.mu.Unlock()
}

func (f *fakeControl) recorded() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

func (f *fakeControl) Status() (remote.Status, error) {
	f.record("status")
	return remote.Status{
		Workers: 4,
		Experiments: []remote.ExpStatus{
			{Experiment: "exp-a", State: "running", Issued: 10, Completed: 7, Running: 3},
		},
	}, nil
}
func (f *fakeControl) Pause(e string) error   { f.record("pause:" + e); return nil }
func (f *fakeControl) Resume(e string) error  { f.record("resume:" + e); return nil }
func (f *fakeControl) Abort(e string) error   { f.record("abort:" + e); return nil }
func (f *fakeControl) SetWorkers(n int) error { f.record(fmt.Sprintf("workers:%d", n)); return nil }
func (f *fakeControl) Adopt(e string) error   { f.record("adopt:" + e); return nil }
func (f *fakeControl) Drop(e string) error    { f.record("drop:" + e); return nil }

// TestCommandsAgainstLiveServer drives the real CLI entry point against
// a real server: every command round-trips HTTP, auth, and JSON.
func TestCommandsAgainstLiveServer(t *testing.T) {
	srv, err := remote.NewServer(remote.Options{
		Metrics:    true,
		Events:     true,
		AdminToken: "ctl-secret",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fake := &fakeControl{}
	srv.SetControl(fake)

	ctl := func(t *testing.T, args ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		code := run(context.Background(), append([]string{"-server", srv.URL(), "-token", "ctl-secret"}, args...), &out, &errb)
		if code != 0 {
			t.Fatalf("ashactl %v exited %d: %s", args, code, errb.String())
		}
		return out.String()
	}

	if got := ctl(t, "status"); !strings.Contains(got, "exp-a") || !strings.Contains(got, "worker budget: 4") {
		t.Errorf("status output missing expected fields:\n%s", got)
	}
	if got := ctl(t, "top", "-n", "1"); !strings.Contains(got, "exp-a") {
		t.Errorf("top output missing experiment:\n%s", got)
	}
	ctl(t, "pause", "exp-a")
	ctl(t, "resume", "exp-a")
	// What an operator sees of each command: its gauge on /metrics.
	gauge := func(t *testing.T, sample string) {
		t.Helper()
		if got := ctl(t, "metrics"); !strings.Contains(got, "\n"+sample+"\n") {
			t.Errorf("metrics scrape has no %q line:\n%s", sample, got)
		}
	}
	ctl(t, "workers", "9")
	gauge(t, "asha_lease_cap 9")
	ctl(t, "drain")
	gauge(t, "asha_server_draining 1")
	ctl(t, "drain", "off")
	gauge(t, "asha_server_draining 0")
	if got := ctl(t, "abort"); !strings.Contains(got, "aborted all experiments") {
		t.Errorf("abort output: %q", got)
	}
	if got := ctl(t, "metrics"); !strings.Contains(got, "asha_leases_granted_total") {
		t.Errorf("metrics scrape missing counter family:\n%s", got)
	}
	if got := ctl(t, "latency"); !strings.Contains(got, "queue wait") || !strings.Contains(got, "heartbeat rtt") {
		t.Errorf("latency summary missing stage rows:\n%s", got)
	}
	if got := ctl(t, "trace"); !strings.Contains(got, "no spans") {
		t.Errorf("trace on an idle server should report no spans:\n%s", got)
	}

	want := []string{"pause:exp-a", "resume:exp-a", "workers:9", "abort:"}
	calls := fake.recorded()
	for _, w := range want {
		found := false
		for _, c := range calls {
			if c == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("control plane never saw %q (saw %v)", w, calls)
		}
	}

	// Wrong token: every admin command must be refused.
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-server", srv.URL(), "-token", "wrong", "status"}, &out, &errb); code == 0 {
		t.Error("status with a bad token succeeded")
	}
}

// TestTailStreamsEvents runs the tail command against a live event bus
// and checks the stream ends cleanly when the run (bus) closes.
func TestTailStreamsEvents(t *testing.T) {
	srv, err := remote.NewServer(remote.Options{Events: true, AdminToken: "ctl-secret"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan string, 1)
	go func() {
		var out, errb bytes.Buffer
		run(context.Background(), []string{"-server", srv.URL(), "-token", "ctl-secret", "tail"}, &out, &errb)
		done <- out.String()
	}()
	// Wait until the tail command's stream subscription has attached —
	// the handler subscribes before answering, so Subscribers() > 0
	// means delivery is guaranteed — then publish and end the stream.
	bus := srv.EventBus()
	deadline := time.Now().Add(10 * time.Second)
	for bus.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tail never attached to the event stream")
		}
		time.Sleep(time.Millisecond)
	}
	bus.Publish(obs.Event{Type: obs.EventCompleted, Experiment: "exp-a", Trial: 1, Loss: 0.5, Resource: 2})
	srv.Close() // closes the bus, ending the stream cleanly
	out := <-done
	if !strings.Contains(out, "completed trial 1") {
		t.Fatalf("tail never printed a completion event; output:\n%q", out)
	}
}

// The journal command is the readable view of the binary journal: the
// old JSON-lines shape, one object per record, non-finite losses as
// strings, and a torn tail reported after the committed records.
func TestJournalDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tuner.journal")
	j, err := state.Create(path, state.Meta{Experiment: "tuner", Algo: "asha.ASHA", Seed: 7, Params: []string{"lr", "momentum"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []state.Record{
		{Issue: &state.Issue{Trial: 3, Rung: 1, Target: 4, Inherit: -1, Kind: state.KindPromote,
			Names: []string{"lr", "momentum"}, Config: map[string]float64{"lr": 0.01, "momentum": 0.9}}},
		{Report: &state.Report{Trial: 3, Rung: 1, Loss: 0.5, TrueLoss: 0.25, Resource: 4, Time: 1.5}},
		{Report: &state.Report{Trial: 4, Loss: math.Inf(1), TrueLoss: math.NaN(), Resource: 1, Time: 2}},
		{Report: &state.Report{Trial: 5, Failed: true, Time: 2.5}},
		{Snap: &state.Snapshot{Issued: 3, Completed: 2, Failed: 1, Time: 2.5, Final: true,
			Trials: []state.TrialSnap{{Trial: 3, Resource: 4, State: []byte(`{"w":[1,2]}`)}}}},
	} {
		r.V = state.Version
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"journal", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	checkGolden(t, "journal.golden", out.String())

	// A torn tail: the committed records still print, the exit says so.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.Write([]byte{40, 0, 0, 0, 1, 2, 3})
	_ = f.Close()
	var torn bytes.Buffer
	errOut.Reset()
	if code := run(context.Background(), []string{"journal", path}, &torn, &errOut); code != 1 ||
		torn.String() != out.String() || !strings.Contains(errOut.String(), "7 bytes past offset") {
		t.Fatalf("torn journal: exit %d, stderr %q, same records %v", code, errOut.String(), torn.String() == out.String())
	}
	// A v1 JSON-lines file is refused by name.
	old := filepath.Join(t.TempDir(), "old.journal")
	if err := os.WriteFile(old, []byte("{\"v\":1,\"meta\":{\"experiment\":\"x\",\"seed\":1}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if code := run(context.Background(), []string{"journal", old}, &torn, &errOut); code != 1 || !strings.Contains(errOut.String(), "format-1 (JSON-lines)") {
		t.Fatalf("v1 journal: exit %d, stderr %q", code, errOut.String())
	}
}

// A checkpoint record prints as one summary line — where its frame is,
// how large, the scheduler its image is of, how many jobs were in flight
// — between the records around it; the image itself does not print.
func TestJournalDumpCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tuner.journal")
	names := []string{"lr", "momentum"}
	j, err := state.Create(path, state.Meta{Experiment: "tuner", Algo: "asha.ASHA", Seed: 7, Params: names})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []state.Record{
		{Issue: &state.Issue{Trial: 0, Target: 1, Inherit: -1, Kind: state.KindSample, Names: names, Config: map[string]float64{"lr": 0.01, "momentum": 0.9}}},
		{Issue: &state.Issue{Trial: 1, Target: 1, Inherit: -1, Kind: state.KindSample, Names: names, Config: map[string]float64{"lr": 0.1, "momentum": 0.5}}},
		{Report: &state.Report{Trial: 0, Loss: 0.5, TrueLoss: 0.5, Resource: 1, Time: 1.5}},
	} {
		r.V = state.Version
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	space := searchspace.New(searchspace.Param{Name: "lr", Type: searchspace.LogUniform, Lo: 1e-4, Hi: 1},
		searchspace.Param{Name: "momentum", Type: searchspace.Uniform, Lo: 0, Hi: 1})
	sched := core.NewASHA(core.ASHAConfig{Space: space, RNG: xrand.New(7), Eta: 4, MinResource: 1, MaxResource: 256})
	var scratch []byte
	if _, err := j.AppendCheckpoint(&scratch, &state.Checkpoint{Issued: 2, Completed: 1, RungCompleted: []int{1}, Names: names,
		InFlight: []state.Pending{{Trial: 1, Inherit: -1, Target: 1, Vals: []float64{0.1, 0.5}}}},
		sched.AppendState, &state.Snapshot{Issued: 2, Completed: 1, Time: 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(state.Record{V: state.Version, Report: &state.Report{Trial: 1, Loss: 0.25, TrueLoss: 0.25, Resource: 1, Time: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"journal", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	checkGolden(t, "journal-checkpoint.golden", out.String())
}
