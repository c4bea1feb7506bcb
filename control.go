package asha

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
)

// A run is the remote.ControlPlane a fleet run attaches to its embedded
// lease server, for Tuner and Manager alike: every admin request is
// shipped to the engine goroutine (Engine.Do) — the only goroutine
// allowed to touch lane state — and runs there between batches. Pause,
// resume and abort flip the addressed lanes' gates; adopt and drop
// activate and deactivate experiments. A Tuner's run has one experiment,
// unnamed: adopt cannot name it, and drop refuses it, for it is owned
// from the start and cannot be handed to another node.
var _ remote.ControlPlane = (*mgrRun)(nil)

// do runs fn on the engine goroutine with the experiments name
// addresses: the named one, or — for the empty name — all of them.
func (r *mgrRun) do(name string, fn func(exps []*mgrExp) error) error {
	return r.eng.Do(func() error {
		if name == "" {
			return fn(r.exps)
		}
		for _, e := range r.exps {
			if e.spec.Name == name {
				return fn([]*mgrExp{e})
			}
		}
		return fmt.Errorf("asha: no experiment %q", name)
	})
}

// state names an experiment's lifecycle state for status reporting.
func (r *mgrRun) state(e *mgrExp) string {
	switch {
	case e.aborted:
		return core.GateAborted
	case e.lane == nil:
		return "dormant"
	default:
		return r.eng.State(e.lane)
	}
}

// settled reports whether the experiment is past scheduling: finished
// experiments keep their result whatever an operator sends next.
func (r *mgrRun) settled(e *mgrExp) bool {
	switch r.state(e) {
	case "done", "failed", core.GateAborted:
		return true
	}
	return false
}

func (r *mgrRun) Status() (remote.Status, error) {
	var st remote.Status
	err := r.do("", func(exps []*mgrExp) error {
		st.Workers = r.eng.Budget
		if len(r.m.tenantQuotas) > 0 {
			st.TenantWeights = make(map[string]int, len(r.m.tenantQuotas))
			for t, w := range r.m.tenantQuotas {
				st.TenantWeights[t] = w
			}
		}
		for _, e := range exps {
			es := remote.ExpStatus{Experiment: e.spec.Name, State: r.state(e)}
			if e.lane != nil {
				ls := r.eng.Status(e.lane)
				es.Issued, es.Completed, es.Failed, es.Running = ls.Issued, ls.Completed, ls.Failed, ls.Running
				es.BestLoss, es.HasBest = ls.Best.Loss, ls.HasBest
				es.RungCompleted = ls.RungCompleted
			}
			st.Experiments = append(st.Experiments, es)
		}
		return nil
	})
	return st, err
}

func (r *mgrRun) Pause(name string) error {
	return r.do(name, func(exps []*mgrExp) error {
		for _, e := range exps {
			if e.lane != nil && !r.settled(e) {
				e.lane.Pause()
			}
		}
		return nil
	})
}

func (r *mgrRun) Resume(name string) error {
	return r.do(name, func(exps []*mgrExp) error {
		for _, e := range exps {
			if e.lane != nil {
				e.lane.Resume()
			}
		}
		return nil
	})
}

func (r *mgrRun) Abort(name string) error {
	return r.do(name, func(exps []*mgrExp) error {
		for _, e := range exps {
			switch {
			case r.settled(e):
			case e.lane != nil:
				e.lane.Abort()
			default:
				e.aborted = true // dormant: it will never be adopted now
				r.eng.Dormant--
			}
		}
		return nil
	})
}

// Adopt activates a dormant experiment on this node — a federated
// shard's boot and failover path alike. With a state dir the
// experiment's journal is recovered (and replayed) if a previous owner
// left one, or created fresh; either way the engine starts issuing its
// jobs on the next pass. Stale leases
// the dead owner granted are already fenced: this node's lease-ID
// generation is seeded past the old one, so pre-failover reports are
// rejected and delivery stays exactly-once.
func (r *mgrRun) Adopt(name string) error {
	if name == "" {
		return errors.New("asha: adopt requires an experiment name")
	}
	return r.do(name, func(exps []*mgrExp) error {
		e := exps[0]
		if r.state(e) != "dormant" {
			return fmt.Errorf("asha: experiment %q is %w", name, remote.ErrAlreadyActive)
		}
		if err := r.activate(e, true); err != nil {
			return fmt.Errorf("asha: adopt %q: %w", name, err)
		}
		r.eng.Dormant--
		r.publish(obs.EventAdopted, name)
		return nil
	})
}

// Drop deactivates experiments this node no longer owns — the fencing
// half of failover, Adopt's inverse (see mgrRun.deactivate). "" drops
// every active experiment (self-fencing after losing coordinator
// contact). Already-dormant and settled experiments are skipped:
// fencing must be safe to repeat. A Tuner's unnamed experiment is
// refused: no other node can adopt it, and dropping its one lane would
// park the run for good.
func (r *mgrRun) Drop(name string) error {
	return r.do(name, func(exps []*mgrExp) error {
		for _, e := range exps {
			if e.spec.Name == "" {
				return errors.New("asha: a Tuner's experiment cannot be dropped")
			}
			if e.lane == nil || r.settled(e) {
				continue
			}
			r.deactivate(e)
			r.eng.Dormant++
			r.publish(obs.EventExpDropped, e.spec.Name)
		}
		return nil
	})
}

// SetWorkers changes the engine's in-flight budget; the admin handler
// adjusts the server's lease cap alongside.
func (r *mgrRun) SetWorkers(n int) error {
	return r.eng.Do(func() error {
		r.eng.Budget = n
		return nil
	})
}

// publish announces an ownership change on the fleet's event stream.
func (r *mgrRun) publish(typ, experiment string) {
	if r.bus != nil {
		r.bus.Publish(obs.Event{Type: typ, Experiment: experiment})
	}
}
