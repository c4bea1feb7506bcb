package asha

import (
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
)

// controlPlane is the remote.ControlPlane a fleet run attaches to its
// embedded lease server, for Tuner and Manager alike: every admin
// request is shipped to the engine goroutine (Engine.Do) — the only
// goroutine allowed to touch lane state — and runs there between
// batches. Pause, resume and abort flip the addressed lanes' gates.
type controlPlane struct {
	eng  *backend.Engine
	exps []*mgrExp
	// run is the Manager run that can activate and deactivate experiments.
	// A Tuner has none: its one unnamed experiment is owned from the start
	// and cannot be handed to another node.
	run *mgrRun
}

// do runs fn on the engine goroutine with the experiments name
// addresses: the named one, or — for the empty name — all of them.
func (c *controlPlane) do(name string, fn func(exps []*mgrExp) error) error {
	return c.eng.Do(func() error {
		if name == "" {
			return fn(c.exps)
		}
		for _, e := range c.exps {
			if e.spec.Name == name {
				return fn([]*mgrExp{e})
			}
		}
		return fmt.Errorf("asha: no experiment %q", name)
	})
}

// state names an experiment's lifecycle state for status reporting.
func (c *controlPlane) state(e *mgrExp) string {
	switch {
	case e.aborted:
		return core.GateAborted
	case e.lane == nil:
		return "dormant"
	default:
		return c.eng.State(e.lane)
	}
}

// settled reports whether the experiment is past scheduling: finished
// experiments keep their result whatever an operator sends next.
func (c *controlPlane) settled(e *mgrExp) bool {
	switch c.state(e) {
	case "done", "failed", core.GateAborted:
		return true
	}
	return false
}

func (c *controlPlane) Status() (remote.Status, error) {
	var st remote.Status
	err := c.do("", func(exps []*mgrExp) error {
		st.Workers = c.eng.Budget
		if c.run != nil && len(c.run.m.tenantQuotas) > 0 {
			st.TenantWeights = make(map[string]int, len(c.run.m.tenantQuotas))
			for t, w := range c.run.m.tenantQuotas {
				st.TenantWeights[t] = w
			}
		}
		for _, e := range exps {
			es := remote.ExpStatus{Experiment: e.spec.Name, State: c.state(e)}
			if e.lane != nil {
				ls := c.eng.Status(e.lane)
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

func (c *controlPlane) Pause(name string) error {
	return c.do(name, func(exps []*mgrExp) error {
		for _, e := range exps {
			if e.lane != nil && !c.settled(e) {
				e.lane.Pause()
			}
		}
		return nil
	})
}

func (c *controlPlane) Resume(name string) error {
	return c.do(name, func(exps []*mgrExp) error {
		for _, e := range exps {
			if e.lane != nil {
				e.lane.Resume()
			}
		}
		return nil
	})
}

func (c *controlPlane) Abort(name string) error {
	return c.do(name, func(exps []*mgrExp) error {
		for _, e := range exps {
			switch {
			case c.settled(e):
			case e.lane != nil:
				e.lane.Abort()
			default:
				e.aborted = true // dormant: it will never be adopted now
				c.eng.Dormant--
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
func (c *controlPlane) Adopt(name string) error {
	if c.run == nil {
		return fmt.Errorf("asha: single-experiment run cannot adopt %q", name)
	}
	if name == "" {
		return errors.New("asha: adopt requires an experiment name")
	}
	return c.do(name, func(exps []*mgrExp) error {
		e := exps[0]
		if c.state(e) != "dormant" {
			return fmt.Errorf("asha: experiment %q is %w", name, remote.ErrAlreadyActive)
		}
		if err := c.run.activate(e, true); err != nil {
			return fmt.Errorf("asha: adopt %q: %w", name, err)
		}
		c.eng.Dormant--
		c.publish(obs.EventAdopted, name)
		return nil
	})
}

// Drop deactivates experiments this node no longer owns — the fencing
// half of failover, Adopt's inverse (see mgrRun.deactivate). "" drops
// every active experiment (self-fencing after losing coordinator
// contact). Already-dormant and settled experiments are skipped:
// fencing must be safe to repeat.
func (c *controlPlane) Drop(name string) error {
	if c.run == nil {
		return fmt.Errorf("asha: single-experiment run cannot drop %q", name)
	}
	return c.do(name, func(exps []*mgrExp) error {
		for _, e := range exps {
			if e.lane == nil || c.settled(e) {
				continue
			}
			c.run.deactivate(e)
			c.eng.Dormant++
			c.publish(obs.EventExpDropped, e.spec.Name)
		}
		return nil
	})
}

// SetWorkers changes the engine's in-flight budget; the admin handler
// adjusts the server's lease cap alongside.
func (c *controlPlane) SetWorkers(n int) error {
	return c.eng.Do(func() error {
		c.eng.Budget = n
		return nil
	})
}

// publish announces an ownership change on the fleet's event stream.
func (c *controlPlane) publish(typ, experiment string) {
	if c.run.bus != nil {
		c.run.bus.Publish(obs.Event{Type: typ, Experiment: experiment})
	}
}
