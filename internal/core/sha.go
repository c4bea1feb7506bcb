package core

import (
	"fmt"

	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// SHAConfig parameterizes synchronous Successive Halving (Algorithm 1).
type SHAConfig struct {
	Space *searchspace.Space
	RNG   *xrand.RNG
	// N is the number of configurations per bracket.
	N int
	// Eta is the reduction factor.
	Eta int
	// MinResource is r; MaxResource is R; EarlyStopRate is s.
	MinResource   float64
	MaxResource   float64
	EarlyStopRate int
	// AllowNewBrackets starts an additional bracket whenever no job is
	// available in existing brackets — the parallelization scheme of
	// Falkner et al. 2018 discussed in Section 3.1. When false, the
	// scheduler runs exactly one bracket and is then Done (used as the
	// building block for synchronous Hyperband).
	AllowNewBrackets bool
	// IncumbentByBracket switches the incumbent accounting from
	// "by rung" (update after every completed rung result) to
	// "by bracket" (update only when a bracket completes) — the two
	// variants compared in Appendix A.2.
	IncumbentByBracket bool
}

func (c *SHAConfig) validate() error {
	if c.Space == nil || c.RNG == nil {
		return fmt.Errorf("core: SHA requires a space and an RNG")
	}
	if c.N < 1 {
		return fmt.Errorf("core: SHA requires n >= 1")
	}
	if c.Eta < 2 {
		return fmt.Errorf("core: SHA requires eta >= 2")
	}
	if c.MinResource <= 0 || c.MaxResource < c.MinResource {
		return fmt.Errorf("core: SHA requires 0 < r <= R")
	}
	if c.EarlyStopRate < 0 {
		return fmt.Errorf("core: SHA requires s >= 0")
	}
	return nil
}

// configSampler produces new configurations; BOHB substitutes its
// model-based sampler for uniform random sampling through this hook.
type configSampler func() searchspace.Config

// shaBracket tracks one synchronous bracket's progress through its rungs.
type shaBracket struct {
	layout  []RungSpec
	rung    int   // index of the rung currently being filled
	members []int // trials surviving into the current rung
	pending []int // members whose current-rung job has not been issued
	running map[int]bool
	results []entry // completed observations in the current rung
	done    bool
}

// SHA implements Algorithm 1 with synchronized eliminations: every job in
// a rung must complete before any promotion happens, which makes the
// method straggler-sensitive (Section 3.1, Appendix A.1).
type SHA struct {
	cfg      SHAConfig
	sampler  configSampler // nil = uniform random
	brackets []*shaBracket
	trials   map[int]searchspace.Config
	bracket  map[int]*shaBracket // trial -> owning bracket
	last     map[int]Result
	nextID   int
	inc      incumbent
}

// NewSHA constructs a synchronous SHA scheduler. It panics on invalid
// configuration.
func NewSHA(cfg SHAConfig) *SHA {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	s := &SHA{
		cfg:     cfg,
		trials:  make(map[int]searchspace.Config),
		bracket: make(map[int]*shaBracket),
		last:    make(map[int]Result),
	}
	s.addBracket()
	return s
}

func (s *SHA) addBracket() *shaBracket {
	b := &shaBracket{
		layout:  BracketLayout(s.cfg.N, s.cfg.MinResource, s.cfg.MaxResource, s.cfg.Eta, s.cfg.EarlyStopRate),
		running: make(map[int]bool),
	}
	for i := 0; i < s.cfg.N; i++ {
		id := s.nextID
		s.nextID++
		s.trials[id] = s.sampleConfig()
		s.bracket[id] = b
		b.members = append(b.members, id)
		b.pending = append(b.pending, id)
	}
	s.brackets = append(s.brackets, b)
	return b
}

func (s *SHA) sampleConfig() searchspace.Config {
	if s.sampler != nil {
		return s.sampler()
	}
	return s.cfg.Space.Sample(s.cfg.RNG)
}

// Next issues the next available job, oldest bracket first. At a rung
// barrier (jobs outstanding, none pending) the worker idles unless
// AllowNewBrackets is set, in which case a fresh bracket is started.
func (s *SHA) Next() (Job, bool) {
	for _, b := range s.brackets {
		if job, ok := s.issueFrom(b); ok {
			return job, true
		}
	}
	if s.cfg.AllowNewBrackets {
		return s.issueFromNew()
	}
	return Job{}, false
}

func (s *SHA) issueFromNew() (Job, bool) {
	return s.issueFrom(s.addBracket())
}

func (s *SHA) issueFrom(b *shaBracket) (Job, bool) {
	if b.done || len(b.pending) == 0 {
		return Job{}, false
	}
	id := b.pending[0]
	b.pending = b.pending[1:]
	b.running[id] = true
	return Job{
		TrialID:        id,
		Config:         s.trials[id],
		Rung:           b.rung,
		TargetResource: b.layout[b.rung].Resource,
		InheritFrom:    -1,
	}, true
}

// Report records a rung completion; when the rung's last job arrives the
// bracket promotes its top 1/eta and moves to the next rung.
func (s *SHA) Report(res Result) {
	b := s.bracket[res.TrialID]
	if b == nil {
		return
	}
	delete(b.running, res.TrialID)
	if res.Failed {
		// The job is re-queued; the rung barrier keeps waiting for it.
		b.pending = append(b.pending, res.TrialID)
		return
	}
	b.results = append(b.results, entry{trialID: res.TrialID, loss: res.Loss})
	s.last[res.TrialID] = res
	if !s.cfg.IncumbentByBracket {
		s.inc.observe(res)
	}
	if len(b.results) == len(b.members) {
		s.advanceBracket(b)
	}
}

// advanceBracket performs the synchronized elimination at a completed
// rung.
func (s *SHA) advanceBracket(b *shaBracket) {
	keep := len(b.members) / s.cfg.Eta
	atTop := b.rung >= len(b.layout)-1
	if atTop || keep < 1 {
		b.done = true
		if s.cfg.IncumbentByBracket {
			// The bracket's output is its best fully-trained member.
			if best := topK(b.results, 1); len(best) == 1 {
				s.inc.observe(s.last[best[0]])
			}
		}
		return
	}
	survivors := topK(b.results, keep)
	b.rung++
	b.members = survivors
	b.pending = append([]int(nil), survivors...)
	b.results = b.results[:0]
}

// Best returns the incumbent under the configured accounting rule.
func (s *SHA) Best() (Best, bool) { return s.inc.get() }

// Done reports whether every bracket has finished and no new bracket
// will be started.
func (s *SHA) Done() bool {
	if s.cfg.AllowNewBrackets {
		return false
	}
	for _, b := range s.brackets {
		if !b.done {
			return false
		}
	}
	return true
}

// Observations returns all recorded (config, loss, resource) triples in
// trial order, used by BOHB to fit its sampling model — which breaks
// equal losses by input order, so the order must not vary run to run.
func (s *SHA) Observations() []Observation {
	out := make([]Observation, 0, len(s.last))
	for id := 0; id < s.nextID; id++ {
		if res, ok := s.last[id]; ok {
			out = append(out, Observation{Config: s.trials[id], Loss: res.Loss, Resource: res.Resource})
		}
	}
	return out
}

// Observation is a completed measurement exposed to model-based samplers.
type Observation struct {
	Config   searchspace.Config
	Loss     float64
	Resource float64
}
