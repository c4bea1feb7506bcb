package exec

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/wire"
)

// The subprocess wire protocol is JSON Lines over stdin/stdout: the
// parent writes one Request per line and the worker answers with one
// Response per line, in order. Training state round-trips through the
// worker as opaque JSON, so the parent can checkpoint, resume and
// inherit it without understanding it. A worker that exits or breaks the
// protocol mid-job yields a Failed completion (the scheduler retries the
// job) and is relaunched.
//
// The same Request/Response pair is the job payload of the distributed
// lease protocol in internal/remote, so every execution substrate
// shares one name-keyed, versioned job encoding.

// WireVersion is the version of the JSON job wire shared by the
// subprocess and remote protocols. Both sides of a connection must
// speak the same version: a worker rejects any request carrying a
// different one instead of silently misinterpreting fields.
const WireVersion = 1

// Request asks a worker process to advance one trial's training.
type Request struct {
	// Version is the wire protocol version (WireVersion). Workers
	// reject requests whose version does not match their own.
	Version int `json:"v"`
	// ID sequences requests per worker; responses echo it.
	ID int `json:"id"`
	// Trial identifies the configuration's stateful training run.
	Trial int `json:"trial"`
	// Config is the name-keyed wire form of the configuration: the
	// protocol stays name-keyed so workers never need the parent's
	// parameter-index table.
	Config map[string]float64 `json:"config"`
	// From and To are cumulative resources: resume at From, train to To.
	From float64 `json:"from"`
	To   float64 `json:"to"`
	// State is the worker-produced checkpoint from the trial's previous
	// job (absent on the first).
	State json.RawMessage `json:"state,omitempty"`
}

// Response reports one finished training job.
type Response struct {
	// Version echoes the wire protocol version the worker speaks.
	Version int     `json:"v"`
	ID      int     `json:"id"`
	Loss    float64 `json:"loss"`
	// State is the checkpoint to resume this trial from later.
	State json.RawMessage `json:"state,omitempty"`
	// Error aborts the whole run (a training bug, not a crash).
	Error string `json:"error,omitempty"`
}

// RunJob executes one wire request against obj on the slot and builds
// its response: decode the checkpoint state, invoke the objective (under
// the slot's context, with the trial ID installed), re-encode the new
// state. A float checkpoint — the common shape — is appended to ckpt, so
// the response's State aliases the caller's buffer when it fits there;
// the caller keeps the buffer untouched for as long as it keeps the
// response. Protocol-level failures — a wire-version mismatch or
// undecodable state — are returned as errors, and the transport decides
// what they mean (the subprocess worker exits, so the parent sees a
// crash and retries; the remote agent reports them as fatal job
// errors). Objective errors travel inside the Response.
func (s *Slot) RunJob(ctx context.Context, obj Objective, req Request, ckpt []byte) (Response, error) {
	if req.Version != WireVersion {
		return Response{}, fmt.Errorf("exec: peer speaks wire version %d, worker speaks %d", req.Version, WireVersion)
	}
	var state interface{}
	if len(req.State) > 0 {
		if f, ok := parseNumberState(req.State); ok {
			state = f
		} else {
			// Decoded into a branch-local: json.Unmarshal moves its target
			// to the heap, and the number path above must not pay for that.
			var decoded interface{}
			if err := json.Unmarshal(req.State, &decoded); err != nil {
				return Response{}, fmt.Errorf("exec: worker failed to decode state: %w", err)
			}
			state = decoded
		}
	}
	resp := Response{Version: WireVersion, ID: req.ID}
	loss, newState, err := obj(s.Context(ctx, req.Trial), req.Config, req.From, req.To, state)
	if err != nil {
		resp.Error = err.Error()
		return resp, nil
	}
	resp.Loss = loss
	if newState != nil {
		if f, ok := newState.(float64); ok && !math.IsNaN(f) && !math.IsInf(f, 0) {
			resp.State = appendJSONFloat(ckpt[:0], f)
		} else if raw, merr := json.Marshal(newState); merr != nil {
			resp.Error = fmt.Sprintf("state not JSON-serializable: %v", merr)
		} else {
			resp.State = raw
		}
	}
	return resp, nil
}

// parseNumberState decodes a checkpoint that is a bare JSON number —
// the common shape for synthetic objectives, and the dominant one on
// the fleet benchmarks' per-job path — without the general JSON
// scanner. Anything else falls back to json.Unmarshal. It takes exactly
// what the JSON number grammar takes: strconv alone would also accept
// Go-literal forms (hex floats, digit-group underscores) and near-numbers
// such as 01, 1. or -.5, all of which a JSON peer must refuse. On what
// it takes, ParseFloat is the parse encoding/json makes, bit for bit.
func parseNumberState(raw []byte) (float64, bool) {
	if !wire.JSONNumber(raw) {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	return f, err == nil
}

// appendJSONFloat appends f exactly as encoding/json encodes a float64
// (shortest round-trip form, exponent notation only beyond 1e21/1e-6,
// the exponent's leading zero trimmed), so a checkpoint written through
// the fast path is byte-identical to one written by json.Marshal — the
// resume-parity goldens depend on that.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// Serve implements the worker side of the protocol: it decodes requests
// from r, invokes obj (with the trial ID available via
// TrialIDFromContext and JSON-decoded state), and encodes responses to
// w. It returns when r reaches EOF. Training state must be
// JSON-serializable; it is handed to obj as decoded JSON (numbers are
// float64, objects are map[string]interface{}).
func Serve(ctx context.Context, r io.Reader, w io.Writer, obj Objective) error {
	dec := json.NewDecoder(bufio.NewReader(r))
	enc := json.NewEncoder(w)
	// One job at a time, each response encoded before the next request
	// is read: one slot and one checkpoint buffer serve the whole loop.
	var slot Slot
	ckpt := make([]byte, 0, 24)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("exec: worker failed to decode request: %w", err)
		}
		resp, err := slot.RunJob(ctx, obj, req, ckpt)
		if err != nil {
			// Answer with the worker's own version before exiting, so a
			// version-skewed parent sees a deterministic protocol error
			// and aborts — a silent exit would read as a crash and spin
			// the relaunch/retry loop forever.
			_ = enc.Encode(&Response{Version: WireVersion, ID: req.ID, Error: err.Error()})
			return err
		}
		if err := enc.Encode(&resp); err != nil {
			return fmt.Errorf("exec: worker failed to encode response: %w", err)
		}
	}
}

// procWorker is one managed worker process.
type procWorker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	enc    *json.Encoder
	dec    *json.Decoder
	nextID int
}

// procResult is a raw worker answer delivered to the engine goroutine.
type procResult struct {
	job        core.Job
	resp       Response
	crashed    bool // worker died or broke protocol; job is retryable
	badVersion bool // worker answered with a mismatched wire version; fatal
	worker     *procWorker
}

// Subprocess is the process-pool backend: each training job runs in an
// isolated OS worker process speaking the JSON protocol, giving true
// parallelism (no shared Go scheduler) and crash isolation — a worker
// that dies loses only its in-flight job, which is reported Failed and
// retried by the scheduler on a freshly launched worker.
type Subprocess struct {
	// Trials holds, as each trial's checkpoint, the opaque JSON a worker
	// produced.
	backend.Trials
	ctx     context.Context
	command string
	args    []string
	env     []string
	workers int

	idle    chan *procWorker
	results chan procResult
	batch   []backend.Completion // Await's return buffer, reused call to call
	start   time.Time
	all     []*procWorker // every process ever spawned, for cancel-kill
	live    int           // worker seats in existence (idle + busy)
	closed  bool
}

// NewSubprocess launches workers copies of command speaking the JSON
// protocol on stdin/stdout. Worker stderr is inherited from the parent.
// env, when non-nil, is appended to the parent's environment.
func NewSubprocess(ctx context.Context, command string, args, env []string, workers int) (*Subprocess, error) {
	if workers < 1 {
		return nil, fmt.Errorf("exec: subprocess backend needs at least one worker")
	}
	s := &Subprocess{
		ctx:     ctx,
		command: command,
		args:    args,
		env:     env,
		workers: workers,
		idle:    make(chan *procWorker, workers),
		results: make(chan procResult, workers),
		start:   time.Now(),
	}
	for i := 0; i < workers; i++ {
		w, err := s.spawn()
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		s.idle <- w
		s.live++
	}
	return s, nil
}

func (s *Subprocess) spawn() (*procWorker, error) {
	cmd := exec.Command(s.command, s.args...)
	if s.env != nil {
		cmd.Env = append(cmd.Environ(), s.env...)
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("exec: subprocess stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("exec: subprocess stdout: %w", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec: launching worker %q: %w", s.command, err)
	}
	w := &procWorker{
		cmd:   cmd,
		stdin: stdin,
		enc:   json.NewEncoder(stdin),
		dec:   json.NewDecoder(bufio.NewReader(stdout)),
	}
	s.all = append(s.all, w)
	return w, nil
}

// Capacity implements backend.Backend.
func (s *Subprocess) Capacity() int { return s.workers }

// Launch resolves the job's trial state and hands it to an idle worker.
// The engine guarantees at most Capacity jobs in flight, so an idle
// worker is always available without blocking.
func (s *Subprocess) Launch(job core.Job) {
	from, state, _ := s.Resolve(job.TrialID, job.InheritFrom)
	w := <-s.idle
	w.nextID++
	req := Request{
		Version: WireVersion,
		ID:      w.nextID,
		Trial:   job.TrialID,
		Config:  job.Config.Map(),
		From:    from,
		To:      job.TargetResource,
		State:   state,
	}
	go func() {
		r := procResult{job: job, worker: w}
		if err := w.enc.Encode(&req); err != nil {
			r.crashed = true
		} else if err := w.dec.Decode(&r.resp); err != nil || r.resp.ID != req.ID {
			r.crashed = true
		} else if r.resp.Version != WireVersion {
			// A coherent answer with the wrong version is a deterministic
			// protocol mismatch, not a crash: retrying would relaunch the
			// same binary and loop forever, so it aborts the run instead.
			r.badVersion = true
		}
		s.results <- r
	}()
}

// Await blocks for one result then drains every other pending result.
func (s *Subprocess) Await(ctx context.Context) ([]backend.Completion, error) {
	var err error
	s.batch, err = awaitBatch(ctx, s.results, s.batch, s.apply)
	return s.batch, err
}

// apply commits a worker result to the trial table, recycling or
// replacing the worker. Runs on the engine goroutine.
func (s *Subprocess) apply(r procResult) backend.Completion {
	c := backend.Completion{Job: r.job, Time: s.Now()}
	switch {
	case r.crashed:
		// The worker died or broke protocol mid-job: the trial keeps its
		// last committed checkpoint, the job is reported Failed (the
		// scheduler retries it), and the seat is refilled with a fresh
		// process.
		c.Failed = true
		r.worker.kill()
		if w, err := s.spawn(); err == nil {
			s.idle <- w
		} else {
			s.live--
			c.Failed = false
			c.Err = fmt.Errorf("exec: relaunching crashed worker: %w", err)
		}
	case r.badVersion:
		s.idle <- r.worker
		c.Err = fmt.Errorf("exec: worker speaks wire version %d, parent speaks %d", r.resp.Version, WireVersion)
	case r.resp.Error != "":
		s.idle <- r.worker
		c.Err = fmt.Errorf("exec: objective failed for trial %d: %s", r.job.TrialID, r.resp.Error)
	default:
		s.idle <- r.worker
		s.Commit(r.job.TrialID, r.job.TargetResource, r.resp.State)
		c.Loss = r.resp.Loss
		c.TrueLoss = r.resp.Loss
		c.Resource = r.job.TargetResource
	}
	return c
}

// Now implements backend.Backend on the wall clock.
func (s *Subprocess) Now() float64 { return time.Since(s.start).Seconds() }

// Close shuts every worker down by closing its stdin (EOF ends Serve)
// and waits for the processes to exit. When the run's context is
// already cancelled the in-flight jobs are not waited for: every worker
// process is killed, so cancellation and WithMaxDuration take effect
// even mid-job.
func (s *Subprocess) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.ctx.Err() != nil {
		// Reader goroutines of killed workers deliver crashed results
		// into the buffered channel and exit; the results are dropped.
		// Reaping is synchronous so no zombies outlive Close.
		for _, w := range s.all {
			_ = w.stdin.Close()
			if w.cmd.Process != nil {
				_ = w.cmd.Process.Kill()
			}
		}
		for _, w := range s.all {
			w.reap()
		}
		return nil
	}
	// Workers still executing a job deliver their pending result before
	// their seat returns to idle; collect all seats first so no process
	// is shut down mid-request.
	for seats := 0; seats < s.live; {
		select {
		case w := <-s.idle:
			w.shutdown()
			seats++
		case r := <-s.results:
			if !r.crashed && !r.badVersion && r.resp.Error == "" {
				s.Commit(r.job.TrialID, r.job.TargetResource, r.resp.State)
			}
			r.worker.shutdown()
			seats++
		}
	}
	return nil
}

func (w *procWorker) shutdown() {
	_ = w.stdin.Close()
	if w.cmd.Process != nil {
		done := make(chan struct{})
		go func() { _ = w.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = w.cmd.Process.Kill()
			<-done
		}
	}
}

func (w *procWorker) kill() {
	_ = w.stdin.Close()
	if w.cmd.Process != nil {
		_ = w.cmd.Process.Kill()
		go func() { _ = w.cmd.Wait() }()
	}
}

// reap waits (bounded) for a killed worker to be collected. A Wait
// already in flight from kill() makes this return immediately.
func (w *procWorker) reap() {
	if w.cmd.Process == nil {
		return
	}
	done := make(chan struct{})
	go func() { _ = w.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
}
