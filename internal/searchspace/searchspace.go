// Package searchspace defines hyperparameter search spaces: typed
// parameters (uniform, log-uniform, integer, ordered choice), random
// sampling, PBT-style perturbation, and the unit-cube vector encoding
// consumed by the Gaussian-process samplers.
//
// Every hyperparameter appearing in the paper's search spaces
// (Tables 1-3 and the cuda-convnet space of Li et al. 2017) is numeric,
// so a configuration is represented as a dense []float64 vector in
// parameter definition order, sharing its Space's name<->index table.
// The vector representation keeps the scheduler->engine->simulator hot
// path free of per-parameter map allocation and string hashing; the
// name-keyed view survives at the JSON wire boundary (see MarshalJSON)
// and through the map-compatible accessors Get/Set/Lookup/Each.
package searchspace

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/xrand"
)

// Type enumerates the supported parameter distributions.
type Type int

const (
	// Uniform samples uniformly on [Lo, Hi].
	Uniform Type = iota
	// LogUniform samples so that log(value) is uniform on [log Lo, log Hi].
	LogUniform
	// IntUniform samples an integer uniformly on {Lo, ..., Hi}.
	IntUniform
	// Choice samples uniformly from an ordered finite set of values.
	Choice
)

// String returns the human-readable name of the parameter type, matching
// the "Type" column of the paper's search-space tables.
func (t Type) String() string {
	switch t {
	case Uniform:
		return "continuous"
	case LogUniform:
		return "continuous log"
	case IntUniform:
		return "discrete"
	case Choice:
		return "choice"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Param describes one hyperparameter.
type Param struct {
	Name    string
	Type    Type
	Lo, Hi  float64   // bounds for Uniform, LogUniform, IntUniform
	Choices []float64 // values for Choice, in ascending order
}

// Validate reports an error if the parameter is malformed.
func (p Param) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("searchspace: parameter with empty name")
	}
	switch p.Type {
	case Uniform, IntUniform:
		if p.Hi < p.Lo {
			return fmt.Errorf("searchspace: %s: hi %v < lo %v", p.Name, p.Hi, p.Lo)
		}
	case LogUniform:
		if p.Lo <= 0 || p.Hi <= 0 {
			return fmt.Errorf("searchspace: %s: log-uniform requires positive bounds", p.Name)
		}
		if p.Hi < p.Lo {
			return fmt.Errorf("searchspace: %s: hi %v < lo %v", p.Name, p.Hi, p.Lo)
		}
	case Choice:
		if len(p.Choices) == 0 {
			return fmt.Errorf("searchspace: %s: choice with no values", p.Name)
		}
		if !sort.Float64sAreSorted(p.Choices) {
			return fmt.Errorf("searchspace: %s: choices must be ascending", p.Name)
		}
	default:
		return fmt.Errorf("searchspace: %s: unknown type %d", p.Name, int(p.Type))
	}
	return nil
}

// Sample draws a value from the parameter's distribution.
func (p Param) Sample(rng *xrand.RNG) float64 {
	switch p.Type {
	case Uniform:
		return rng.Uniform(p.Lo, p.Hi)
	case LogUniform:
		return rng.LogUniform(p.Lo, p.Hi)
	case IntUniform:
		return float64(rng.UniformInt(int(p.Lo), int(p.Hi)))
	case Choice:
		return p.Choices[rng.IntN(len(p.Choices))]
	default:
		panic("searchspace: unknown parameter type")
	}
}

// Encode maps a value into [0, 1] for GP modelling: linearly for Uniform
// and IntUniform, logarithmically for LogUniform, and by index for Choice.
func (p Param) Encode(v float64) float64 {
	switch p.Type {
	case Uniform, IntUniform:
		if p.Hi == p.Lo {
			return 0.5
		}
		return clamp01((v - p.Lo) / (p.Hi - p.Lo))
	case LogUniform:
		return encodeLog(v, math.Log(p.Lo), math.Log(p.Hi))
	case Choice:
		if len(p.Choices) == 1 {
			return 0.5
		}
		return float64(p.indexOf(v)) / float64(len(p.Choices)-1)
	default:
		panic("searchspace: unknown parameter type")
	}
}

// Decode is the inverse of Encode, mapping u in [0, 1] back to a valid
// parameter value (rounding for IntUniform and Choice).
func (p Param) Decode(u float64) float64 {
	u = clamp01(u)
	switch p.Type {
	case Uniform:
		return clampF(p.Lo+u*(p.Hi-p.Lo), p.Lo, p.Hi)
	case LogUniform:
		return p.decodeLog(u, math.Log(p.Lo), math.Log(p.Hi))
	case IntUniform:
		return math.Round(p.Lo + u*(p.Hi-p.Lo))
	case Choice:
		idx := int(math.Round(u * float64(len(p.Choices)-1)))
		return p.Choices[idx]
	default:
		panic("searchspace: unknown parameter type")
	}
}

// encodeLog is Encode for LogUniform bounds with logarithms llo and lhi.
func encodeLog(v, llo, lhi float64) float64 {
	if lhi == llo {
		return 0.5
	}
	return clamp01((math.Log(v) - llo) / (lhi - llo))
}

// decodeLog is Decode for a LogUniform parameter, u already clamped.
func (p *Param) decodeLog(u, llo, lhi float64) float64 {
	// Clamp: exp(log(lo)) can round below lo.
	return clampF(math.Exp(llo+u*(lhi-llo)), p.Lo, p.Hi)
}

// Perturb applies a PBT-style multiplicative perturbation: continuous
// parameters are multiplied by factor (clipped to bounds); discrete and
// choice parameters move to the adjacent value in the direction of the
// factor, per Appendix A.3 ("discrete hyperparameters are perturbed to
// two adjacent choices").
func (p Param) Perturb(v, factor float64) float64 {
	switch p.Type {
	case Uniform:
		return clampF(v*factor, p.Lo, p.Hi)
	case LogUniform:
		return clampF(v*factor, p.Lo, p.Hi)
	case IntUniform:
		step := 1.0
		if factor < 1 {
			step = -1
		}
		return clampF(math.Round(v)+step, p.Lo, p.Hi)
	case Choice:
		idx := p.indexOf(v)
		if factor >= 1 {
			idx++
		} else {
			idx--
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(p.Choices) {
			idx = len(p.Choices) - 1
		}
		return p.Choices[idx]
	default:
		panic("searchspace: unknown parameter type")
	}
}

// indexOf returns the index of the choice closest to v.
func (p Param) indexOf(v float64) int {
	best, bd := 0, math.Inf(1)
	for i, c := range p.Choices {
		if d := math.Abs(c - v); d < bd {
			bd, best = d, i
		}
	}
	return best
}

// Contains reports whether v is a legal value for the parameter.
func (p Param) Contains(v float64) bool {
	switch p.Type {
	case Uniform, LogUniform:
		return v >= p.Lo && v <= p.Hi
	case IntUniform:
		return v >= p.Lo && v <= p.Hi && v == math.Round(v)
	case Choice:
		for _, c := range p.Choices {
			if c == v {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// nameTable is a shared, immutable name<->index mapping. A Space owns
// one; configurations decoded from foreign name-keyed data (the
// subprocess JSON boundary, hand-built test fixtures) synthesize their
// own. Tables are never mutated after construction, so Configs can share
// them freely across goroutines.
type nameTable struct {
	names []string
	index map[string]int
}

func newNameTable(names []string) *nameTable {
	t := &nameTable{names: names, index: make(map[string]int, len(names))}
	for i, n := range names {
		t.index[n] = i
	}
	return t
}

// Config is a concrete hyperparameter assignment: a dense value vector
// in table order. The zero Config is empty. Config is a small value type
// (copying it copies the slice header, not the values); use Clone for an
// independent copy. Configs produced by the same Space share one name
// table, so equality checks and encoding skip name lookups entirely.
type Config struct {
	table *nameTable
	vals  []float64
}

// Len returns the number of parameters in the configuration.
func (c Config) Len() int { return len(c.vals) }

// IsZero reports whether the configuration is the empty zero value.
func (c Config) IsZero() bool { return c.table == nil }

// Get returns the named parameter's value, or 0 when absent — the same
// semantics as indexing the former map representation.
func (c Config) Get(name string) float64 {
	v, _ := c.Lookup(name)
	return v
}

// Lookup returns the named parameter's value and whether it is present.
func (c Config) Lookup(name string) (float64, bool) {
	if c.table == nil {
		return 0, false
	}
	i, ok := c.table.index[name]
	if !ok || i >= len(c.vals) {
		return 0, false
	}
	return c.vals[i], true
}

// At returns the value at table index i.
func (c Config) At(i int) float64 { return c.vals[i] }

// SetAt assigns the value at table index i.
func (c Config) SetAt(i int, v float64) { c.vals[i] = v }

// Clone returns a deep copy of the configuration (values copied, name
// table shared).
func (c Config) Clone() Config {
	if c.table == nil {
		return Config{}
	}
	out := Config{table: c.table, vals: make([]float64, len(c.vals))}
	copy(out.vals, c.vals)
	return out
}

// Equal reports whether the two configurations assign identical values
// to an identical set of parameter names. Configurations from the same
// Space compare without any name lookup.
func (c Config) Equal(o Config) bool {
	if len(c.vals) != len(o.vals) {
		return false
	}
	if c.table == o.table {
		for i, v := range c.vals {
			if o.vals[i] != v {
				return false
			}
		}
		return true
	}
	for i, v := range c.vals {
		ov, ok := o.Lookup(c.table.names[i])
		if !ok || ov != v {
			return false
		}
	}
	return true
}

// Values returns the configuration's backing value vector in table
// order — the dense form the remote binary wire ships instead of a
// name-keyed map. The slice is the live backing store, not a copy:
// callers must treat it as read-only and must not retain it past the
// configuration's lifetime.
func (c Config) Values() []float64 { return c.vals }

// Names returns the configuration's parameter names in table order.
// The slice is the shared, immutable name table: configurations of the
// same Space return the identical slice, so a transport can use slice
// identity to detect "same table as last time" and send names once.
func (c Config) Names() []string {
	if c.table == nil {
		return nil
	}
	return c.table.names
}

// Map returns a name-keyed copy of the configuration — the
// compatibility representation handed to public objectives and the
// subprocess wire protocol.
func (c Config) Map() map[string]float64 {
	out := make(map[string]float64, len(c.vals))
	for i, v := range c.vals {
		out[c.table.names[i]] = v
	}
	return out
}

// FromMap builds a standalone configuration from a name-keyed map. The
// synthesized table orders names lexicographically so the result is
// deterministic. Prefer Space.FromMap when the owning space is known —
// it aligns the vector with the space's table.
func FromMap(m map[string]float64) Config {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	c := Config{table: newNameTable(names), vals: make([]float64, len(names))}
	for i, n := range names {
		c.vals[i] = m[n]
	}
	return c
}

// FromValues builds a standalone configuration from a dense vector laid
// out against names (copied), as the journal stores one. Clone it to
// build more over the same table.
func FromValues(names []string, vals []float64) Config {
	return Config{table: newNameTable(names), vals: append([]float64(nil), vals...)}
}

// MarshalJSON encodes the configuration as a name-keyed JSON object in
// table order, keeping the subprocess wire protocol name-keyed.
func (c Config) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range c.vals {
		if i > 0 {
			b.WriteByte(',')
		}
		nb, err := json.Marshal(c.table.names[i])
		if err != nil {
			return nil, err
		}
		b.Write(nb)
		b.WriteByte(':')
		vb, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		b.Write(vb)
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// UnmarshalJSON decodes a name-keyed JSON object into a standalone
// configuration (see FromMap).
func (c *Config) UnmarshalJSON(data []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*c = FromMap(m)
	return nil
}

// String renders the configuration as a name-keyed literal in table
// order.
func (c Config) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range c.vals {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %g", c.table.names[i], v)
	}
	b.WriteByte('}')
	return b.String()
}

// Space is an ordered collection of parameters.
type Space struct {
	params []Param
	table  *nameTable
	// logLo and logHi hold log(Lo) and log(Hi) of each LogUniform
	// parameter (zero elsewhere): constants no sample or encode recomputes.
	logLo, logHi []float64
}

// New builds a Space from params. It panics if any parameter is invalid
// or duplicated; spaces are package-level constants in practice, so a
// malformed space is a programming error.
func New(params ...Param) *Space {
	names := make([]string, 0, len(params))
	seen := make(map[string]bool, len(params))
	s := &Space{}
	for _, p := range params {
		if err := p.Validate(); err != nil {
			panic(err)
		}
		if seen[p.Name] {
			panic(fmt.Sprintf("searchspace: duplicate parameter %q", p.Name))
		}
		seen[p.Name] = true
		names = append(names, p.Name)
		s.params = append(s.params, p)
	}
	s.logLo, s.logHi = make([]float64, len(params)), make([]float64, len(params))
	for i, p := range params {
		if p.Type == LogUniform {
			s.logLo[i], s.logHi[i] = math.Log(p.Lo), math.Log(p.Hi)
		}
	}
	s.table = newNameTable(names)
	return s
}

// Params returns the parameters in definition order.
func (s *Space) Params() []Param { return s.params }

// Dim returns the number of parameters.
func (s *Space) Dim() int { return len(s.params) }

// Param returns the parameter with the given name.
func (s *Space) Param(name string) (Param, bool) {
	i, ok := s.table.index[name]
	if !ok {
		return Param{}, false
	}
	return s.params[i], true
}

// IndexOf returns the table index of the named parameter, or -1. Hot
// paths resolve indices once and use Config.At thereafter.
func (s *Space) IndexOf(name string) int {
	i, ok := s.table.index[name]
	if !ok {
		return -1
	}
	return i
}

// NewConfig returns a zero-valued configuration owned by the space.
func (s *Space) NewConfig() Config {
	return Config{table: s.table, vals: make([]float64, len(s.params))}
}

// FromMap builds a space-aligned configuration from a name-keyed map.
// Names outside the space are ignored; missing names default to 0.
func (s *Space) FromMap(m map[string]float64) Config {
	c := s.NewConfig()
	for n, v := range m {
		if i, ok := s.table.index[n]; ok {
			c.vals[i] = v
		}
	}
	return c
}

// Owns reports whether c shares the space's name table, so c.At(i) is
// the space's parameter i. A configuration from the package FromMap or
// Config.UnmarshalJSON has a table of its own; Space.FromMap(c.Map())
// brings it into the space's order.
func (s *Space) Owns(c Config) bool { return c.table == s.table }

// SampleEncoded fills buf (length Dim) with the encoded coordinates of
// a configuration drawn uniformly from the space, without allocating a
// Config. The distribution matches Encode(Sample(rng)) exactly.
func (s *Space) SampleEncoded(rng *xrand.RNG, buf []float64) {
	if len(buf) != len(s.params) {
		panic("searchspace: SampleEncoded buffer has wrong length")
	}
	for i, p := range s.params {
		switch p.Type {
		case Uniform, LogUniform:
			buf[i] = rng.Float64()
		case IntUniform:
			buf[i] = p.Encode(float64(rng.UniformInt(int(p.Lo), int(p.Hi))))
		case Choice:
			if len(p.Choices) == 1 {
				buf[i] = 0.5
			} else {
				buf[i] = float64(rng.IntN(len(p.Choices))) / float64(len(p.Choices)-1)
			}
		}
	}
}

// Sample draws a configuration uniformly from the space. The parameter
// order (and therefore the RNG consumption order) matches the space's
// definition order, exactly as the former map representation sampled.
func (s *Space) Sample(rng *xrand.RNG) Config {
	c := Config{table: s.table, vals: make([]float64, len(s.params))}
	s.sampleInto(rng, c.vals)
	return c
}

func (s *Space) sampleInto(rng *xrand.RNG, vals []float64) {
	for i := range s.params {
		if p := &s.params[i]; p.Type == LogUniform {
			vals[i] = math.Exp(rng.Uniform(s.logLo[i], s.logHi[i]))
		} else {
			vals[i] = p.Sample(rng)
		}
	}
}

// encode is params[i].Encode(v) with the cached logarithms.
func (s *Space) encode(i int, v float64) float64 {
	if p := &s.params[i]; p.Type != LogUniform {
		return p.Encode(v)
	}
	return encodeLog(v, s.logLo[i], s.logHi[i])
}

// Encode maps a configuration to a point in the unit cube, in parameter
// definition order.
func (s *Space) Encode(c Config) []float64 {
	x := make([]float64, len(s.params))
	s.EncodeInto(c, x)
	return x
}

// EncodeInto writes the unit-cube encoding of c into x (length Dim),
// avoiding the allocation of Encode on hot paths. Space-owned
// configurations encode by index with no name lookups.
func (s *Space) EncodeInto(c Config, x []float64) {
	if len(x) != len(s.params) {
		panic(fmt.Sprintf("searchspace: EncodeInto expected %d dims, got %d", len(s.params), len(x)))
	}
	if s.Owns(c) && c.Len() == len(s.params) {
		for i := range s.params {
			x[i] = s.encode(i, c.vals[i])
		}
		return
	}
	for i := range s.params {
		x[i] = s.encode(i, c.Get(s.params[i].Name))
	}
}

// Decode maps a unit-cube point back to a configuration.
func (s *Space) Decode(x []float64) Config {
	if len(x) != len(s.params) {
		panic(fmt.Sprintf("searchspace: Decode expected %d dims, got %d", len(s.params), len(x)))
	}
	c := Config{table: s.table, vals: make([]float64, len(s.params))}
	for i := range s.params {
		if p := &s.params[i]; p.Type == LogUniform {
			c.vals[i] = p.decodeLog(clamp01(x[i]), s.logLo[i], s.logHi[i])
		} else {
			c.vals[i] = p.Decode(x[i])
		}
	}
	return c
}

// Contains reports whether every parameter value in c is legal and every
// parameter of the space is present.
func (s *Space) Contains(c Config) bool {
	if c.Len() != len(s.params) {
		return false
	}
	if s.Owns(c) {
		for i, p := range s.params {
			if !p.Contains(c.vals[i]) {
				return false
			}
		}
		return true
	}
	for _, p := range s.params {
		v, ok := c.Lookup(p.Name)
		if !ok || !p.Contains(v) {
			return false
		}
	}
	return true
}

// Arena bulk-allocates configuration vectors in slabs so samplers that
// create one trial per get_job call (ASHA's bottom rung grows by ~10^5
// configurations in the 500-worker regime) amortize their allocation to
// ~1/256 of a make per configuration. Configurations drawn from an
// arena live as long as any of them is referenced; schedulers own one
// arena and keep every sampled trial anyway, so nothing is pinned that
// would otherwise be freed. An Arena is not safe for concurrent use.
type Arena struct {
	space *Space
	slab  []float64
}

// arenaSlabConfigs is the number of configurations per slab.
const arenaSlabConfigs = 256

// NewArena returns an empty arena for the space.
func (s *Space) NewArena() *Arena { return &Arena{space: s} }

// take carves one config-sized vector off the current slab.
func (a *Arena) take() []float64 {
	dim := len(a.space.params)
	if dim == 0 {
		return nil
	}
	if len(a.slab) < dim {
		a.slab = make([]float64, dim*arenaSlabConfigs)
	}
	vals := a.slab[:dim:dim]
	a.slab = a.slab[dim:]
	return vals
}

// Sample draws a configuration uniformly from the space, backed by the
// arena. The RNG stream is identical to Space.Sample.
func (a *Arena) Sample(rng *xrand.RNG) Config {
	c := Config{table: a.space.table, vals: a.take()}
	a.space.sampleInto(rng, c.vals)
	return c
}

// New returns a zero-valued configuration backed by the arena, for a
// decoder to fill with SetAt.
func (a *Arena) New() Config { return Config{table: a.space.table, vals: a.take()} }

// Clone copies cfg into arena-backed storage (for schedulers that retain
// a modified copy per trial, e.g. PBT's explore step).
func (a *Arena) Clone(cfg Config) Config {
	if !a.space.Owns(cfg) || cfg.Len() != len(a.space.params) {
		return cfg.Clone()
	}
	c := Config{table: a.space.table, vals: a.take()}
	copy(c.vals, cfg.vals)
	return c
}

// Table renders the space in the layout of the paper's search-space
// tables (hyperparameter, type, values).
func (s *Space) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-16s %s\n", "Hyperparameter", "Type", "Values")
	for _, p := range s.params {
		var vals string
		switch p.Type {
		case Choice:
			parts := make([]string, len(p.Choices))
			for i, c := range p.Choices {
				parts[i] = trimFloat(c)
			}
			vals = "{" + strings.Join(parts, ", ") + "}"
		default:
			vals = "[" + trimFloat(p.Lo) + ", " + trimFloat(p.Hi) + "]"
		}
		fmt.Fprintf(&b, "%-24s %-16s %s\n", p.Name, p.Type.String(), vals)
	}
	return b.String()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e7 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
