package exec

import (
	"bufio"
	"bytes"
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

// The subprocess protocol: internal/wire frames of the job codec over a
// worker's stdin and stdout. Each side first sends a hello with its
// WireVersion, checked once per process. The parent sends a table of
// parameter names whenever a job's names are not the last ones the
// process got, then the job; the worker answers each job in order.
// Training state round-trips through the worker as opaque JSON, so the
// parent can checkpoint, resume and inherit it without understanding
// it. A worker that exits or breaks the protocol mid-job costs a Failed
// job (retried) and a relaunch; a worker of another version, or one
// answering with a checkpoint that is not JSON, aborts the run.

// RunJob runs one job against obj on the slot: fill the slot's config
// map from names and q.Vec, decode the checkpoint, invoke the objective
// under the slot's context, re-encode the new state. A float checkpoint
// — the common shape — is appended to ckpt, so the answer's State
// aliases the caller's buffer when it fits there; the caller keeps the
// buffer untouched for as long as it keeps the answer. A checkpoint that
// does not decode, an objective error and a state that does not
// serialize all come back as an error answer, which aborts the run.
func (s *Slot) RunJob(ctx context.Context, obj Objective, names []string, q BinRequest, ckpt []byte) BinResponse {
	var state interface{}
	if f, ok := parseNumberState(q.State); ok {
		state = f
	} else if len(q.State) > 0 {
		// Decoded into a branch-local: json.Unmarshal moves its target to
		// the heap, and the number path above must not pay for that.
		var decoded interface{}
		if err := json.Unmarshal(q.State, &decoded); err != nil {
			return BinResponse{ID: q.ID, IsErr: true, Err: fmt.Sprintf("exec: worker failed to decode state: %v", err)}
		}
		state = decoded
	}
	loss, newState, err := obj(s.Context(ctx, q.Trial), s.Config(names, q.Vec), q.From, q.To, state)
	if err != nil {
		return BinResponse{ID: q.ID, IsErr: true, Err: err.Error()}
	}
	resp := BinResponse{ID: q.ID, Loss: loss}
	if newState != nil {
		if f, ok := newState.(float64); ok && !math.IsNaN(f) && !math.IsInf(f, 0) {
			resp.State = appendJSONFloat(ckpt[:0], f)
		} else if raw, merr := json.Marshal(newState); merr != nil {
			return BinResponse{ID: q.ID, IsErr: true, Err: fmt.Sprintf("state not JSON-serializable: %v", merr)}
		} else {
			resp.State = raw
		}
	}
	return resp
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

// Serve implements the worker side of the protocol: it sends its
// hello, checks the parent's, then runs each job read from r against obj
// and writes its result to w. It returns nil at EOF on r, and an error,
// running nothing more, on a parent of another wire version or a frame
// out of turn. obj gets the trial ID via TrialIDFromContext and the
// state as decoded JSON (numbers are float64, objects are
// map[string]interface{}), so training state must be JSON-serializable.
func Serve(ctx context.Context, r io.Reader, w io.Writer, obj Objective) error {
	p := pipe{bw: bufio.NewWriter(w), br: bufio.NewReader(r)}
	if err := p.write(&pipeFrame{kind: frameHello, version: WireVersion}); err != nil {
		return fmt.Errorf("exec: worker failed to send its hello: %w", err)
	}
	// One job at a time, its result written before the next frame is
	// read: one slot, one frame buffer and one checkpoint buffer serve
	// the whole loop.
	var (
		slot    Slot
		f       pipeFrame
		names   []string
		greeted bool
		ckpt    = make([]byte, 0, 24)
	)
	for {
		if err := p.read(&f); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("exec: worker failed to read a frame: %w", err)
		}
		switch {
		case !greeted && f.kind == frameHello:
			if f.version != WireVersion {
				return fmt.Errorf("exec: parent speaks wire version %d, worker speaks %d", f.version, WireVersion)
			}
			greeted = true
		case greeted && f.kind == frameTable:
			names = f.names
		case greeted && f.kind == frameJob && len(f.job.Vec) == len(names):
			if err := p.write(&pipeFrame{kind: frameResult, result: slot.RunJob(ctx, obj, names, f.job, ckpt)}); err != nil {
				return fmt.Errorf("exec: worker failed to send a result: %w", err)
			}
		default:
			return fmt.Errorf("exec: worker got a frame of type 0x%02x out of turn or unlike its table", f.kind)
		}
	}
}

// pipe is one end of a worker's stdin and stdout: frames leave through
// bw and arrive through br, each encoded or read into buf.
type pipe struct {
	bw  *bufio.Writer
	br  *bufio.Reader
	buf []byte
}

func (p *pipe) write(f *pipeFrame) error {
	p.buf = appendPipeFrame(p.buf[:0], f)
	return wire.WriteFrame(p.bw, p.buf)
}

// read decodes the next frame into f, its job or result aliasing the
// buffer until the next read or write.
func (p *pipe) read(f *pipeFrame) error {
	body, err := wire.ReadFrame(p.br, p.buf)
	if err == nil {
		p.buf = body
		err = decodePipeFrame(body, f)
	}
	return err
}

// procWorker is one managed worker process. Between spawn and its first
// job only the engine goroutine touches it; after that, only the
// goroutine running its current job.
type procWorker struct {
	pipe
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	names   []string // the last table sent; a fresh worker holds the empty one
	greeted bool     // the worker's hello has been read and matched
	nextID  uint64
}

// procResult is a raw worker answer delivered to the engine goroutine.
type procResult struct {
	job     core.Job
	resp    BinResponse
	crashed bool  // worker died or broke protocol; job is retryable
	err     error // a deterministic protocol failure; fatal
	worker  *procWorker
}

// Subprocess is the process-pool backend: each training job runs in an
// isolated OS worker process speaking the pipe protocol, giving true
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

// NewSubprocess launches workers copies of command speaking the pipe
// protocol on stdin/stdout. Worker stderr is inherited from the parent.
// env, when non-nil, is appended to the parent's environment.
func NewSubprocess(ctx context.Context, command string, args, env []string, workers int) (*Subprocess, error) {
	if workers < 1 {
		return nil, fmt.Errorf("exec: subprocess backend needs at least one worker")
	}
	s := &Subprocess{ctx: ctx, command: command, args: args, env: env, workers: workers,
		idle: make(chan *procWorker, workers), results: make(chan procResult, workers), start: time.Now()}
	for ; s.live < workers; s.live++ {
		w, err := s.spawn()
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		s.idle <- w
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
	w := &procWorker{pipe: pipe{bw: bufio.NewWriter(stdin), br: bufio.NewReader(stdout)}, cmd: cmd, stdin: stdin}
	// A failed write sticks in the writer: the first job's flush returns
	// it, and the job is retried on a fresh process.
	_ = w.write(&pipeFrame{kind: frameHello, version: WireVersion})
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
	q := BinRequest{ID: w.nextID, Trial: job.TrialID, From: from, To: job.TargetResource, Vec: job.Config.Values(), State: state}
	names := job.Config.Names()
	go func() {
		r := procResult{job: job, worker: w}
		r.resp, r.crashed, r.err = w.run(names, q)
		s.results <- r
	}()
}

// run takes one job through the worker's pipe: the worker's hello is
// read and matched before the process's first job, and the names table
// is sent when it is not the one the process last got — slice identity
// is the test, one space's configurations sharing one slice. A result's
// checkpoint is copied out of the frame buffer, and refused unless it is
// JSON.
func (w *procWorker) run(names []string, q BinRequest) (resp BinResponse, crashed bool, err error) {
	var f pipeFrame
	if !w.greeted {
		if w.read(&f) != nil || f.kind != frameHello {
			return resp, true, nil
		}
		if f.version != WireVersion {
			return resp, false, fmt.Errorf("exec: worker speaks wire version %d, parent speaks %d", f.version, WireVersion)
		}
		w.greeted = true
	}
	if len(names) != len(w.names) || len(names) > 0 && &names[0] != &w.names[0] {
		w.names = names
		if w.write(&pipeFrame{kind: frameTable, names: names}) != nil {
			return resp, true, nil
		}
	}
	if w.write(&pipeFrame{kind: frameJob, job: q}) != nil || w.read(&f) != nil || f.kind != frameResult || f.result.ID != q.ID {
		return resp, true, nil
	}
	resp = f.result
	if len(resp.State) > 0 && !wire.ValidJSON(resp.State) {
		return resp, false, fmt.Errorf("exec: trial %d's checkpoint is not valid JSON", q.Trial)
	}
	resp.State = bytes.Clone(resp.State)
	return resp, false, nil
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
	if !r.crashed {
		s.idle <- r.worker
	}
	switch {
	case r.crashed:
		// The worker died or broke protocol mid-job: the trial keeps its
		// last committed checkpoint, the job is reported Failed (the
		// scheduler retries it), and the seat is refilled with a fresh
		// process.
		c.Failed = true
		go r.worker.stop(0)
		if w, err := s.spawn(); err == nil {
			s.idle <- w
		} else {
			s.live--
			c.Failed = false
			c.Err = fmt.Errorf("exec: relaunching crashed worker: %w", err)
		}
	case r.err != nil:
		c.Err = r.err
	case r.resp.IsErr:
		c.Err = fmt.Errorf("exec: objective failed for trial %d: %s", r.job.TrialID, r.resp.Err)
	default:
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
		// Goroutines of killed workers' jobs deliver crashed results into
		// the buffered channel and exit; the results are dropped. The
		// kills are waited for, so no zombies outlive Close.
		for _, w := range s.all {
			w.stop(0)
		}
		return nil
	}
	// Workers still executing a job deliver their pending result before
	// their seat returns to idle; collect all seats first so no process
	// is shut down mid-request.
	for seats := 0; seats < s.live; seats++ {
		select {
		case w := <-s.idle:
			w.stop(5 * time.Second)
		case r := <-s.results:
			if !r.crashed && r.err == nil && !r.resp.IsErr {
				s.Commit(r.job.TrialID, r.job.TargetResource, r.resp.State)
			}
			r.worker.stop(5 * time.Second)
		}
	}
	return nil
}

// stop closes the worker's stdin — EOF ends Serve — and waits for the
// process to exit, killing it once grace has passed.
func (w *procWorker) stop(grace time.Duration) {
	_ = w.stdin.Close()
	done := make(chan struct{})
	go func() { _ = w.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
		_ = w.cmd.Process.Kill()
		<-done
	}
}
