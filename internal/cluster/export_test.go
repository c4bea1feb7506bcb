package cluster

import "repro/internal/workload"

// peekTime returns the earliest event time; the caller checks Len first.
func (q *eventQueue) peekTime() float64 { return q.ev[0].time }

// TrialsForTest returns the simulator's started trials keyed by ID.
func (s *Sim) TrialsForTest() map[int]*workload.Trial {
	out := make(map[int]*workload.Trial, s.nTrials)
	s.trials.Each(func(id int, t *simTrial) {
		if t.started {
			out[id] = &t.Trial
		}
	})
	return out
}

// Trace returns the per-job event log recorded when
// Options.RecordTrace is set, in completion order.
func (s *Sim) Trace() []JobEvent { return s.trace }
