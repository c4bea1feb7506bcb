package asha

import (
	"context"
	"fmt"
	"os"

	"repro/internal/exec"
	"repro/internal/remote"
)

// ServeWorker implements the worker side of the Subprocess backend's
// protocol on stdin/stdout: it reads the binary job frames the parent
// sends, invokes obj for each job, and writes each result until stdin
// closes; a parent of another version, or a frame that breaks the
// protocol, ends it with an error. A worker executable is typically
// nothing more than
//
//	func main() {
//		if err := asha.ServeWorker(context.Background(), objective); err != nil {
//			log.Fatal(err)
//		}
//	}
//
// Objective state must be JSON-serializable: it round-trips through the
// parent process between jobs (numbers come back as float64, objects as
// map[string]interface{}). The trial ID is available inside obj via
// TrialIDFromContext.
func ServeWorker(ctx context.Context, obj Objective) error {
	return exec.Serve(ctx, os.Stdin, os.Stdout, exec.Objective(obj))
}

// RemoteWorker configures one worker of a distributed fleet (the worker
// side of the Remote backend and of Manager fleets; see also
// cmd/ashaworker for a ready-made binary serving the built-in
// benchmarks).
type RemoteWorker struct {
	// Server is the lease server's base URL, e.g. "http://tuner:8700".
	Server string
	// Token is the shared worker-auth secret (must match the server's).
	Token string
	// Name optionally identifies the worker in server-side accounting.
	Name string
	// Slots is how many jobs this worker trains concurrently
	// (default 1).
	Slots int
	// Objective trains single-experiment jobs (a Tuner's Remote
	// backend) and any experiment missing from Objectives.
	Objective Objective
	// Objectives maps experiment names to objectives for Manager
	// fleets, where one server schedules several named experiments.
	Objectives map[string]Objective
	// ObjectiveFor, when set, resolves experiments missing from
	// Objectives before Objective is tried (return nil to fall
	// through). Distinct experiments reuse trial IDs, so an objective
	// that caches per-trial state must not be shared between them —
	// this hook lets a worker build one instance per experiment.
	ObjectiveFor func(experiment string) Objective
	// Experiments, when non-empty, restricts this worker's leases to
	// jobs of the named experiments, so it never receives work it
	// cannot train. When nil, the restriction is inferred: the keys of
	// Objectives if neither Objective nor ObjectiveFor is set (a
	// closed set), unrestricted otherwise. Set it explicitly when
	// ObjectiveFor only serves some of a fleet's experiments.
	Experiments []string
}

// ServeRemoteWorker connects to a tuning process's lease server and
// trains jobs until the context is cancelled or the server reports the
// run is over. It may be called before the server is up (registration
// retries for ~30s) or long after the run started — the fleet is
// elastic, and a late worker immediately receives queued jobs. The
// worker heartbeats its in-flight jobs; if it dies, the server requeues
// them on surviving workers.
//
// Objective state must be JSON-serializable: a trial's next job may be
// leased by a different worker, so checkpoints round-trip through the
// server exactly as in the Subprocess protocol.
func ServeRemoteWorker(ctx context.Context, w RemoteWorker) error {
	resolve := func(experiment string) (exec.Objective, error) {
		if obj, ok := w.Objectives[experiment]; ok {
			return exec.Objective(obj), nil
		}
		if w.ObjectiveFor != nil {
			if obj := w.ObjectiveFor(experiment); obj != nil {
				return exec.Objective(obj), nil
			}
		}
		if w.Objective != nil {
			return exec.Objective(w.Objective), nil
		}
		return nil, fmt.Errorf("asha: worker has no objective for experiment %q", experiment)
	}
	// A worker that only knows named experiments must not lease jobs of
	// other experiments — it could only fail them. Without an explicit
	// restriction, a catch-all Objective or ObjectiveFor means the
	// worker serves anything.
	experiments := w.Experiments
	if experiments == nil && w.Objective == nil && w.ObjectiveFor == nil {
		for name := range w.Objectives {
			experiments = append(experiments, name)
		}
	}
	return remote.ServeAgent(ctx, remote.AgentOptions{
		Server:      w.Server,
		Token:       w.Token,
		Name:        w.Name,
		Slots:       w.Slots,
		Resolve:     resolve,
		Experiments: experiments,
	})
}
