package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// PBTConfig parameterizes Population Based Training (Jaderberg et al.
// 2017) with the settings described in Appendix A.3: truncation
// selection for the exploit phase, perturb-or-resample exploration, a
// bound on how far apart members' training progress may drift, and
// optionally spawning fresh populations to keep workers busy.
type PBTConfig struct {
	Space *searchspace.Space
	RNG   *xrand.RNG
	// Population is the number of members per population (20-40
	// recommended; the paper uses 25, or 20 in Section 4.3.1).
	Population int
	// Step is the resource between exploit/explore rounds (1000
	// iterations in Section 4.1/4.2; 8 epochs in Section 4.3.1).
	Step float64
	// MaxResource is R; members stop training once they reach it.
	MaxResource float64
	// TruncationFrac is the fraction replaced each round: members in
	// the bottom fraction copy a member of the top fraction (0.2 in
	// Appendix A.3).
	TruncationFrac float64
	// ResampleProb is the probability a hyperparameter is freshly
	// resampled during exploration rather than perturbed (1/4 in
	// Appendix A.3).
	ResampleProb float64
	// PerturbFactors are the multiplicative perturbations applied
	// otherwise ({0.8, 1.2} in Appendix A.3).
	PerturbFactors [2]float64
	// FrozenParams lists hyperparameters that change the architecture
	// and therefore cannot be perturbed once weights exist (Appendix
	// A.3's adaptation for the architecture tuning task).
	FrozenParams []string
	// MaxLag bounds how far (in resource) a member may train ahead of
	// the slowest unfinished member, so exploit comparisons are fair
	// (2000 iterations in Appendix A.3). Zero disables the bound.
	MaxLag float64
	// SpawnPopulations starts a new population whenever no job is
	// available from existing ones, maintaining 100% worker efficiency
	// (Appendix A.3). When false, workers idle at lag barriers.
	SpawnPopulations bool
}

func (c *PBTConfig) validate() error {
	if c.Space == nil || c.RNG == nil {
		return fmt.Errorf("core: PBT requires a space and an RNG")
	}
	if c.Population < 2 {
		return fmt.Errorf("core: PBT requires a population of at least 2")
	}
	if c.Step <= 0 || c.MaxResource < c.Step {
		return fmt.Errorf("core: PBT requires 0 < step <= R")
	}
	if c.TruncationFrac <= 0 || c.TruncationFrac > 0.5 {
		return fmt.Errorf("core: PBT truncation fraction must be in (0, 0.5]")
	}
	return nil
}

// pbtMember is one population member's state.
type pbtMember struct {
	trialID  int
	cfg      searchspace.Config
	resource float64 // completed resource
	loss     float64
	hasLoss  bool
	running  bool
}

type pbtPopulation struct {
	members []*pbtMember
}

// PBT implements Population Based Training over stateful trials: exploit
// copies both weights (trial state, via Job.InheritFrom) and
// hyperparameters from a top member, explore perturbs or resamples the
// inherited hyperparameters.
type PBT struct {
	cfg    PBTConfig
	pops   []*pbtPopulation
	byID   map[int]*pbtMember
	frozen map[string]bool
	arena  *searchspace.Arena
	nextID int
	inc    incumbent
	scored []*pbtMember // exploit's ranking, reused between calls
}

// NewPBT constructs a PBT scheduler. It panics on invalid configuration.
func NewPBT(cfg PBTConfig) *PBT {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if cfg.PerturbFactors == [2]float64{} {
		cfg.PerturbFactors = [2]float64{0.8, 1.2}
	}
	if cfg.ResampleProb == 0 {
		cfg.ResampleProb = 0.25
	}
	p := &PBT{cfg: cfg, byID: make(map[int]*pbtMember), frozen: make(map[string]bool), arena: cfg.Space.NewArena()}
	for _, name := range cfg.FrozenParams {
		p.frozen[name] = true
	}
	p.addPopulation()
	return p
}

func (p *PBT) addPopulation() *pbtPopulation {
	pop := &pbtPopulation{}
	for i := 0; i < p.cfg.Population; i++ {
		m := &pbtMember{trialID: p.nextID, cfg: p.arena.Sample(p.cfg.RNG)}
		p.nextID++
		p.byID[m.trialID] = m
		pop.members = append(pop.members, m)
	}
	p.pops = append(p.pops, pop)
	return pop
}

// Next picks the least-trained eligible member and issues its next step,
// applying exploit/explore at step boundaries. If no member is eligible
// (lag bound or all running) a new population is spawned when configured.
func (p *PBT) Next() (Job, bool) {
	for _, pop := range p.pops {
		if job, ok := p.issueFrom(pop); ok {
			return job, true
		}
	}
	if p.cfg.SpawnPopulations {
		return p.issueFrom(p.addPopulation())
	}
	return Job{}, false
}

func (p *PBT) issueFrom(pop *pbtPopulation) (Job, bool) {
	minRes := math.Inf(1)
	for _, m := range pop.members {
		if m.resource >= p.cfg.MaxResource {
			continue
		}
		if m.resource < minRes {
			minRes = m.resource
		}
	}
	var pick *pbtMember
	for _, m := range pop.members {
		if m.running || m.resource >= p.cfg.MaxResource {
			continue
		}
		if p.cfg.MaxLag > 0 && m.resource+p.cfg.Step > minRes+p.cfg.MaxLag {
			continue // would train too far ahead of the stragglers
		}
		if pick == nil || m.resource < pick.resource {
			pick = m
		}
	}
	if pick == nil {
		return Job{}, false
	}
	inherit := -1
	if pick.hasLoss {
		if donor := p.exploit(pop, pick); donor != nil {
			inherit = donor.trialID
			pick.cfg = p.explore(donor.cfg)
			pick.resource = donor.resource
			pick.loss, pick.hasLoss = donor.loss, donor.hasLoss
		}
	}
	pick.running = true
	target := pick.resource + p.cfg.Step
	if target > p.cfg.MaxResource {
		target = p.cfg.MaxResource
	}
	rung := int(math.Round(pick.resource / p.cfg.Step))
	return Job{TrialID: pick.trialID, Config: pick.cfg, Rung: rung, TargetResource: target, InheritFrom: inherit}, true
}

// exploit returns a donor from the top truncation fraction if m ranks in
// the bottom fraction of its population, else nil.
func (p *PBT) exploit(pop *pbtPopulation, m *pbtMember) *pbtMember {
	scored := p.scored[:0]
	for _, mm := range pop.members {
		if mm.hasLoss {
			scored = append(scored, mm)
		}
	}
	p.scored = scored
	if len(scored) < 2 {
		return nil
	}
	// Ascending (loss, trialID), negative only where that order's <
	// holds: a NaN loss is never less, which fixes where it lands.
	slices.SortFunc(scored, func(a, b *pbtMember) int {
		if a.loss != b.loss {
			if a.loss < b.loss {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.trialID, b.trialID)
	})
	k := int(math.Ceil(p.cfg.TruncationFrac * float64(len(scored))))
	if k < 1 {
		k = 1
	}
	rank := -1
	for i, mm := range scored {
		if mm == m {
			rank = i
			break
		}
	}
	if rank < len(scored)-k {
		return nil // not in the bottom fraction
	}
	donors := scored[:k]
	donor := donors[p.cfg.RNG.IntN(len(donors))]
	if donor == m {
		return nil
	}
	return donor
}

// explore perturbs each non-architectural hyperparameter by a random
// factor, or resamples it with probability ResampleProb. Parameters are
// visited in space definition order, exactly as the map representation
// iterated Params(), so the RNG stream is unchanged.
func (p *PBT) explore(cfg searchspace.Config) searchspace.Config {
	out := p.arena.Clone(cfg)
	for i, param := range p.cfg.Space.Params() {
		if p.frozen[param.Name] {
			continue
		}
		if p.cfg.RNG.Bernoulli(p.cfg.ResampleProb) {
			out.SetAt(i, param.Sample(p.cfg.RNG))
			continue
		}
		factor := p.cfg.PerturbFactors[p.cfg.RNG.IntN(2)]
		out.SetAt(i, param.Perturb(out.At(i), factor))
	}
	return out
}

// Report records a member's step result. Failed steps are simply
// re-eligible (the executor rolled the trial back to its checkpoint).
func (p *PBT) Report(res Result) {
	m := p.byID[res.TrialID]
	if m == nil {
		return
	}
	m.running = false
	if res.Failed {
		return
	}
	m.resource = res.Resource
	m.loss, m.hasLoss = res.Loss, true
	p.inc.observe(res)
}

// Best returns the best loss observed by any member at any step.
func (p *PBT) Best() (Best, bool) { return p.inc.get() }

// Done reports whether every member of every population is fully
// trained (only reachable when SpawnPopulations is false).
func (p *PBT) Done() bool {
	if p.cfg.SpawnPopulations {
		return false
	}
	for _, pop := range p.pops {
		for _, m := range pop.members {
			if m.resource < p.cfg.MaxResource {
				return false
			}
		}
	}
	return true
}
