package exec

// Tests of the subprocess pipe: the worker side (Serve) driven with
// hand-built frames, the parent side (Subprocess) against fake workers
// that answer with canned frames and against this test binary serving
// a real objective.

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/searchspace"
	"repro/internal/wire"
	"repro/internal/xrand"
)

func wireSpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "lr", Type: searchspace.LogUniform, Lo: 1e-4, Hi: 1},
		searchspace.Param{Name: "momentum", Type: searchspace.Uniform, Lo: 0, Hi: 1},
		searchspace.Param{Name: "layers", Type: searchspace.IntUniform, Lo: 1, Hi: 8},
	)
}

// pipeBytes is what a peer writes for frames, in order.
func pipeBytes(frames ...pipeFrame) []byte {
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	for i := range frames {
		_ = wire.WriteFrame(bw, appendPipeFrame(nil, &frames[i])) // a bytes.Buffer takes every write
	}
	return out.Bytes()
}

// readPipe decodes every frame in b.
func readPipe(t *testing.T, b []byte) []pipeFrame {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(b))
	var frames []pipeFrame
	for {
		body, err := wire.ReadFrame(br, nil)
		if err != nil {
			return frames
		}
		var f pipeFrame
		if err := decodePipeFrame(body, &f); err != nil {
			t.Fatalf("frame %d: %v", len(frames), err)
		}
		frames = append(frames, f)
	}
}

func hello(version uint64) pipeFrame { return pipeFrame{kind: frameHello, version: version} }

// fakeWorker is a one-seat Subprocess whose worker writes frames, reads
// whatever the parent sends and exits at EOF.
func fakeWorker(t *testing.T, frames ...pipeFrame) *Subprocess {
	t.Helper()
	script := t.TempDir() + "/frames"
	if err := os.WriteFile(script, pipeBytes(frames...), 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := NewSubprocess(context.Background(), "sh", []string{"-c", `cat "$0"; exec cat >/dev/null`, script}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// awaitOne launches a job on trial 1 and returns its completion.
func awaitOne(t *testing.T, s *Subprocess) backend.Completion {
	t.Helper()
	s.Launch(core.Job{TrialID: 1, Config: wireSpace().Sample(xrand.New(3)), TargetResource: 2, InheritFrom: -1})
	batch, err := s.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 {
		t.Fatalf("got %d completions, want 1", len(batch))
	}
	return batch[0]
}

// TestSubprocessVersionMismatchAbortsRun pins the parent side of the
// version handshake: a worker whose hello names another wire version is
// a deterministic protocol mismatch, so the job must come back with a
// fatal error (aborting the run) rather than a retryable crash —
// retrying would relaunch the same binary forever. The fake worker
// answers the job coherently after its hello, so only the hello check
// can tell.
func TestSubprocessVersionMismatchAbortsRun(t *testing.T) {
	s := fakeWorker(t, hello(WireVersion+98), pipeFrame{kind: frameResult, result: BinResponse{ID: 1, Loss: 0.5}})
	c := awaitOne(t, s)
	if c.Failed {
		t.Fatal("version mismatch was classified as a retryable crash")
	}
	if c.Err == nil || !strings.Contains(c.Err.Error(), "wire version") {
		t.Fatalf("want a fatal wire-version error, got %v", c.Err)
	}
}

// TestSubprocessCheckpointMustBeJSON: a worker answering with a
// checkpoint that is not JSON fails the run, naming the trial, and the
// trial keeps no such state — a retry would only meet the same bug.
func TestSubprocessCheckpointMustBeJSON(t *testing.T) {
	s := fakeWorker(t, hello(WireVersion), pipeFrame{kind: frameResult, result: BinResponse{ID: 1, Loss: 0.5, State: []byte("{oops")}})
	c := awaitOne(t, s)
	if c.Failed || c.Err == nil || !strings.Contains(c.Err.Error(), "trial 1") {
		t.Fatalf("want a fatal error naming trial 1, got failed=%v err=%v", c.Failed, c.Err)
	}
	if _, st, _ := s.Resolve(1, -1); st != nil {
		t.Fatalf("the trial committed the checkpoint %q", st)
	}
}

// TestWireVersionMismatchRejected: a worker refuses a parent of another
// wire version before running anything. It has sent its own hello by
// then — the parent reads the skew from it and aborts the run instead
// of relaunching a worker that would only exit again.
func TestWireVersionMismatchRejected(t *testing.T) {
	called := false
	obj := func(context.Context, map[string]float64, float64, float64, interface{}) (float64, interface{}, error) {
		called = true
		return 0, nil, nil
	}
	in := pipeBytes(hello(WireVersion+1),
		pipeFrame{kind: frameTable, names: []string{"lr"}},
		pipeFrame{kind: frameJob, job: BinRequest{ID: 1, Trial: 1, To: 2, Vec: []float64{0.1}}})
	var out bytes.Buffer
	err := Serve(context.Background(), bytes.NewReader(in), &out, obj)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("Serve accepted a mismatched wire version: %v", err)
	}
	if called {
		t.Fatal("objective ran despite the version mismatch")
	}
	if got := readPipe(t, out.Bytes()); !reflect.DeepEqual(got, []pipeFrame{hello(WireVersion)}) {
		t.Fatalf("worker wrote %+v, want its hello alone", got)
	}
}

// TestServeRoundTripsVectorConfig drives the worker side of the protocol
// in-memory: the objective must observe exactly the names of the last
// table and the values of its job's vector — no key of an earlier table
// — and each result must carry its job's ID and loss back.
func TestServeRoundTripsVectorConfig(t *testing.T) {
	space := wireSpace()
	cfg := space.Sample(xrand.New(11))
	other := []string{"width", "lr"}
	in := pipeBytes(hello(WireVersion),
		pipeFrame{kind: frameTable, names: cfg.Names()},
		pipeFrame{kind: frameJob, job: BinRequest{ID: 1, Trial: 1, To: 2, Vec: cfg.Values()}},
		pipeFrame{kind: frameJob, job: BinRequest{ID: 2, Trial: 2, To: 2, Vec: cfg.Values()}},
		pipeFrame{kind: frameTable, names: other},
		pipeFrame{kind: frameJob, job: BinRequest{ID: 3, Trial: 3, To: 2, Vec: []float64{64, 0.5}}})
	obj := func(ctx context.Context, got map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
		if id, _ := TrialIDFromContext(ctx); id == 3 {
			if want := map[string]float64{"width": 64, "lr": 0.5}; !reflect.DeepEqual(got, want) {
				t.Errorf("after the table changed the objective saw %v, want %v", got, want)
			}
		} else if !cfg.Equal(space.FromMap(got)) {
			t.Errorf("objective saw %v, want %v", got, cfg)
		}
		return got["lr"] + got["momentum"], nil, nil
	}
	var out bytes.Buffer
	if err := Serve(context.Background(), bytes.NewReader(in), &out, obj); err != nil {
		t.Fatal(err)
	}
	got := readPipe(t, out.Bytes())
	want := []pipeFrame{hello(WireVersion)}
	for id, loss := range []float64{cfg.Get("lr") + cfg.Get("momentum"), cfg.Get("lr") + cfg.Get("momentum"), 0.5} {
		want = append(want, pipeFrame{kind: frameResult, result: BinResponse{ID: uint64(id + 1), Loss: loss}})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("worker wrote %+v, want %+v", got, want)
	}
}

// keysObjective checkpoints the sorted names of the config it was
// handed: what the worker's table held when the job ran.
func keysObjective(_ context.Context, cfg map[string]float64, _, _ float64, _ interface{}) (float64, interface{}, error) {
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return 1, keys, nil
}

// TestSubprocessSendsEachNewTable: one worker process runs jobs of two
// spaces in turn, and each job is trained under its own space's names —
// the parent sends a table whenever the names change, not only on a
// process's first job.
func TestSubprocessSendsEachNewTable(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSubprocess(context.Background(), exe, nil, []string{"EXEC_TEST_WORKER=keys"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wide := searchspace.New(
		searchspace.Param{Name: "depth", Type: searchspace.Uniform, Lo: 0, Hi: 1},
		searchspace.Param{Name: "width", Type: searchspace.Uniform, Lo: 0, Hi: 1},
	)
	for trial, space := range []*searchspace.Space{wireSpace(), wide, wireSpace()} {
		cfg := space.Sample(xrand.New(uint64(trial)))
		s.Launch(core.Job{TrialID: trial, Config: cfg, TargetResource: 1, InheritFrom: -1})
		batch, err := s.Await(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if c := batch[0]; c.Failed || c.Err != nil {
			t.Fatalf("trial %d: failed=%v err=%v", trial, c.Failed, c.Err)
		}
		names := slices.Clone(cfg.Names())
		slices.Sort(names)
		want := `["` + strings.Join(names, `","`) + `"]`
		if _, st, _ := s.Resolve(trial, -1); string(st) != want {
			t.Fatalf("trial %d trained under %s, want %s", trial, st, want)
		}
	}
}

// crashObjective kills its worker process on trial 1's job.
func crashObjective(ctx context.Context, _ map[string]float64, _, _ float64, _ interface{}) (float64, interface{}, error) {
	if id, _ := TrialIDFromContext(ctx); id == 1 {
		os.Exit(3)
	}
	return 0.5, 0.5, nil
}

// TestSubprocessCrashCostsOneJob: a worker that dies mid-job costs that
// job alone — reported Failed, for the scheduler to retry, with no
// error — and its seat goes to a fresh process that runs the next job.
func TestSubprocessCrashCostsOneJob(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSubprocess(context.Background(), exe, nil, []string{"EXEC_TEST_WORKER=crash"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if c := awaitOne(t, s); !c.Failed || c.Err != nil {
		t.Fatalf("crashed job: failed=%v err=%v, want a retryable failure", c.Failed, c.Err)
	}
	s.Launch(core.Job{TrialID: 2, Config: wireSpace().Sample(xrand.New(4)), TargetResource: 2, InheritFrom: -1})
	batch, err := s.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c := batch[0]; c.Failed || c.Err != nil || c.Loss != 0.5 {
		t.Fatalf("job after the crash: %+v", c)
	}
	if _, st, _ := s.Resolve(2, -1); string(st) != "0.5" {
		t.Fatalf("trial 2 committed %q, want 0.5", st)
	}
}

// BenchmarkSubprocessPipe is one job's round trip through the
// subprocess pipe, both ends in this process: the parent's side of a
// worker (procWorker.run: table, job frame, result frame, checkpoint
// check and copy) against Serve over a pair of io.Pipes, with an
// objective whose state is a float — the shape of the fleet benchmarks.
func BenchmarkSubprocessPipe(b *testing.B) {
	toWorker, fromParent := io.Pipe()
	toParent, fromWorker := io.Pipe()
	obj := func(_ context.Context, cfg map[string]float64, _, to float64, st interface{}) (float64, interface{}, error) {
		s, _ := st.(float64)
		return cfg["lr"] * to, s + to, nil
	}
	done := make(chan error, 1)
	go func() { done <- Serve(context.Background(), toWorker, fromWorker, obj) }()
	w := &procWorker{pipe: pipe{bw: bufio.NewWriter(fromParent), br: bufio.NewReader(toParent)}}
	// An io.Pipe holds nothing: read the worker's hello before sending
	// the parent's, where an OS pipe would buffer both.
	var f pipeFrame
	if err := w.read(&f); err != nil || f.kind != frameHello {
		b.Fatalf("worker hello: %+v, %v", f, err)
	}
	w.greeted = true
	if err := w.write(&pipeFrame{kind: frameHello, version: WireVersion}); err != nil {
		b.Fatal(err)
	}
	cfg := wireSpace().Sample(xrand.New(1))
	var state []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.nextID++
		q := BinRequest{ID: w.nextID, Trial: 1, From: float64(i), To: float64(i + 1), Vec: cfg.Values(), State: state}
		resp, crashed, err := w.run(cfg.Names(), q)
		if crashed || err != nil || resp.IsErr {
			b.Fatalf("job %d: crashed=%v err=%v %s", i, crashed, err, resp.Err)
		}
		state = resp.State
	}
	b.StopTimer()
	_ = fromParent.Close()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
