package core

// Scheduler checkpoints: an image of a scheduler's state that a resume
// restores instead of re-running every decision its journal holds.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/searchspace"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// StateCodec is a scheduler's optional checkpoint surface. AppendState
// appends an image of everything the scheduler's future decisions read,
// headed by the configuration it was taken under; RestoreState makes a
// scheduler constructed with that configuration and seed continue from
// the image exactly as the one that wrote it would have — the same Next
// and Report stream, the same Best, bit for bit. It refuses an image of
// another configuration, naming the setting that differs and leaving the
// scheduler as it was; after any other error the scheduler is not to be
// used. Images are canonical: a restored scheduler appends the image it
// was restored from.
//
// ASHA, AsyncHyperband and RandomSearch implement it, and Gate forwards
// it. A scheduler that has the methods but cannot be checkpointed — a
// Gate over one without a codec, ModelASHA, whose TPE model is its whole
// history — appends nothing and returns ErrNoState: its journal replays
// in full. SHA, Hyperband, BOHB, PBT, Vizier and Fabolas have no codec.
type StateCodec interface {
	AppendState(dst []byte) []byte
	RestoreState(image []byte) error
}

// ErrNoState is RestoreState's answer from a scheduler that cannot be
// checkpointed.
var ErrNoState = errors.New("core: the scheduler cannot be restored from a checkpoint")

// CodecOf returns sched's codec, or nil when it cannot be checkpointed.
// It finds out by encoding the state once: call it on a scheduler before
// it has done anything.
func CodecOf(sched Scheduler) StateCodec {
	c, ok := sched.(StateCodec)
	if !ok || len(c.AppendState(nil)) == 0 {
		return nil
	}
	return c
}

// StateKind names the scheduler an image is of: "asha",
// "async-hyperband", "random", or "" for bytes that are not an image.
func StateKind(image []byte) string { return wire.NewReader(image).String() }

// AppendState implements StateCodec by forwarding to the wrapped
// scheduler; the gate's own pause state is live control, not state.
func (g *Gate) AppendState(dst []byte) []byte {
	if c, ok := g.inner.(StateCodec); ok {
		return c.AppendState(dst)
	}
	return dst
}

// RestoreState implements StateCodec by forwarding to the wrapped
// scheduler.
func (g *Gate) RestoreState(image []byte) error {
	if c, ok := g.inner.(StateCodec); ok {
		return c.RestoreState(image)
	}
	return ErrNoState
}

// setting is one configuration value an image is taken under.
type setting struct {
	name string
	v    float64
}

// appendHead appends an image's head: the scheduler kind, its settings
// as float bits, then the fingerprint of its search space.
func appendHead(dst []byte, kind string, space *searchspace.Space, settings ...setting) []byte {
	dst = wire.AppendString(dst, kind)
	for _, s := range settings {
		dst = wire.AppendFloat64(dst, s.v)
	}
	return wire.AppendUint64(dst, fingerprint(space))
}

// checkHead reads an image's head and refuses one of another kind or
// configuration, naming the first setting that differs.
func checkHead(r *wire.Reader, kind string, space *searchspace.Space, settings ...setting) error {
	if got := r.String(); r.Err() == nil && got != kind {
		return fmt.Errorf("core: the checkpoint is of a %q scheduler, this one is %q", got, kind)
	}
	for _, s := range settings {
		if got := r.Float64(); r.Err() == nil && math.Float64bits(got) != math.Float64bits(s.v) {
			return fmt.Errorf("core: the checkpoint was taken with %s %v, this %s scheduler has %s %v", s.name, got, kind, s.name, s.v)
		}
	}
	if got := r.Uint64(); r.Err() == nil && got != fingerprint(space) {
		return fmt.Errorf("core: the checkpoint was taken over another search space than this %s scheduler's (a parameter's name, type, bounds or choices differ)", kind)
	}
	return r.Err()
}

// fingerprint hashes every parameter of space — name, type, bounds and
// choices, in order — so that a checkpoint is refused by a scheduler
// sampling from a space its journal's parameter names do not tell apart.
func fingerprint(space *searchspace.Space) uint64 {
	h := xrand.NewFNV64()
	for _, p := range space.Params() {
		h.String(p.Name)
		h.Uint64(uint64(p.Type))
		h.Uint64(math.Float64bits(p.Lo))
		h.Uint64(math.Float64bits(p.Hi))
		h.Uint64(uint64(len(p.Choices)))
		for _, c := range p.Choices {
			h.Uint64(math.Float64bits(c))
		}
	}
	return h.Sum()
}

// appendList appends a count and each element of xs.
func appendList[T any](dst []byte, xs []T, put func([]byte, T) []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = put(dst, x)
	}
	return dst
}

// appendTable appends a count and each entry of t from from on.
func appendTable[T any](dst []byte, t *Table[T], from int, put func([]byte, T) []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(max(t.Len()-from, 0)))
	for i := from; i < t.Len(); i++ {
		dst = put(dst, *t.At(i))
	}
	return dst
}

// count reads a list's count, each element at least size bytes, and
// checks it against what is left before anything is sized: 0 if it
// does not fit.
func count(r *wire.Reader, size int) int {
	n := r.Int()
	if n > r.Remaining()/size {
		r.Failf("core: %d elements of %d bytes in %d", n, size, r.Remaining())
		return 0
	}
	return n
}

// readList reads what appendList wrote, each element at least size
// bytes.
func readList[T any](r *wire.Reader, size int, get func() T) []T {
	var xs []T
	if n := count(r, size); n > 0 {
		xs = make([]T, n)
	}
	for i := range xs {
		xs[i] = get()
	}
	return xs
}

// readTable reads what appendTable wrote into t, allocated exactly.
func readTable[T any](r *wire.Reader, size int, t *Table[T], get func() T) {
	xs := t.Restore(count(r, size))
	for i := range xs {
		xs[i] = get()
	}
}

func appendEntry(dst []byte, e entry) []byte {
	return wire.AppendFloat64(wire.AppendUvarint(dst, uint64(e.trialID)), e.loss)
}

func appendValues(dst []byte, c searchspace.Config) []byte {
	for _, v := range c.Values() {
		dst = wire.AppendFloat64(dst, v)
	}
	return dst
}

func appendRetry(dst []byte, j Job) []byte {
	return wire.AppendUvarint(wire.AppendUvarint(dst, uint64(j.TrialID)), uint64(j.Rung))
}

// below reads an int and refuses one of n or more.
func below(r *wire.Reader, n int, what string) int {
	v := r.Int()
	if v >= n && r.Err() == nil {
		r.Failf("core: %s %d of %d", what, v, n)
	}
	return v
}

// appendState appends what ASHA and random search share: the generator's
// stream position, every trial's configuration, the retry queue (trial
// and rung; the scheduler rebuilds the rest of each job) and the
// incumbent (its configuration is its trial's).
func appendState(dst []byte, rng *xrand.RNG, trials *Table[searchspace.Config], retry *retryQueue, inc *incumbent) []byte {
	at := len(dst)
	dst = append(dst, 0) // the length: one varint byte, PCG's state is 20
	dst, _ = rng.AppendBinary(dst)
	dst[at] = byte(len(dst) - at - 1)
	return inc.appendTo(appendList(appendTable(dst, trials, 0, appendValues), retry.queued(), appendRetry))
}

func (in *incumbent) appendTo(dst []byte) []byte {
	if !in.set {
		return append(dst, 0)
	}
	dst = wire.AppendUvarint(append(dst, 1), uint64(in.best.TrialID))
	return wire.AppendFloat64(wire.AppendFloat64(wire.AppendFloat64(dst, in.best.Loss), in.best.TrueLoss), in.best.Resource)
}

// readIncumbent reads what appendTo wrote; config returns trial's
// configuration, after checking it names a trial in the image.
func readIncumbent(r *wire.Reader, trials int, config func(trial int) searchspace.Config) incumbent {
	switch r.Byte() {
	case 0:
		return incumbent{}
	case 1:
		b := Best{TrialID: below(r, trials, "incumbent trial"), Loss: r.Float64(), TrueLoss: r.Float64(), Resource: r.Float64()}
		if r.Err() == nil {
			b.Config = config(b.TrialID)
		}
		return incumbent{best: b, set: true}
	}
	r.Failf("core: incumbent flag")
	return incumbent{}
}

// restoreState reads what appendState wrote into the scheduler's own
// fields; job rebuilds a queued retry.
func restoreState(r *wire.Reader, rng *xrand.RNG, arena *searchspace.Arena, dim int, trials *Table[searchspace.Config],
	retry *retryQueue, rungs int, job func(trial, rung int) Job) {
	if err := rng.UnmarshalBinary(r.Bytes()); err != nil && r.Err() == nil {
		r.Failf("core: generator state: %v", err)
	}
	readTable(r, max(8*dim, 1), trials, func() searchspace.Config {
		c := arena.New()
		for k := 0; k < dim; k++ {
			c.SetAt(k, r.Float64())
		}
		return c
	})
	*retry = retryQueue{}
	for _, p := range readList(r, 2, func() [2]int {
		return [2]int{below(r, trials.Len(), "retry of trial"), below(r, rungs, "retry at rung")}
	}) {
		if r.Err() == nil {
			retry.push(job(p[0], p[1]))
		}
	}
}

// settings is the configuration an ASHA image is taken under: an array,
// so that appending the head allocates nothing.
func (a *ASHA) settings() [6]setting {
	horizon := 0.0
	if a.cfg.InfiniteHorizon {
		horizon = 1
	}
	return [...]setting{{"eta", float64(a.cfg.Eta)}, {"r", a.cfg.MinResource}, {"R", a.cfg.MaxResource},
		{"s", float64(a.cfg.EarlyStopRate)}, {"infinite horizon", horizon}, {"rung cap", float64(a.cfg.RungCap)}}
}

// AppendState implements StateCodec: the head, the rungs — heaps as
// they stand, so that a restore copies instead of re-heapifying, and
// bitsets — then appendState's part. ModelASHA inherits the method but
// appends nothing: its sampler's model is fit to the whole history.
func (a *ASHA) AppendState(dst []byte) []byte {
	if a.sampleHook != nil {
		return dst
	}
	head := a.settings()
	dst = wire.AppendUvarint(appendHead(dst, "asha", a.cfg.Space, head[:]...), uint64(len(a.rungs)))
	for _, g := range a.rungs {
		for _, h := range [...]*entryHeap{&g.lower, &g.upper, &g.cand} {
			dst = appendTable(dst, &h.items, heapPad, appendEntry)
		}
		dst = appendTable(appendTable(dst, &g.recorded.words, 0, wire.AppendUint64), &g.nominated.words, 0, wire.AppendUint64)
	}
	return appendState(dst, a.cfg.RNG, &a.trials, &a.retry, &a.inc)
}

// RestoreState implements StateCodec.
func (a *ASHA) RestoreState(image []byte) error {
	r := wire.NewReader(image)
	if err := a.restore(r); err != nil {
		return err
	}
	r.ExpectEOF()
	if r.Err() != nil {
		return fmt.Errorf("core: asha checkpoint: %w", r.Err())
	}
	return nil
}

// restore reads one ASHA image off r; only a refused head leaves the
// scheduler as it was.
func (a *ASHA) restore(r *wire.Reader) error {
	if a.sampleHook != nil {
		return ErrNoState
	}
	head := a.settings()
	if err := checkHead(r, "asha", a.cfg.Space, head[:]...); err != nil {
		return err
	}
	a.rungs = readList(r, 5, func() *ashaRung { return newASHARung(a.cfg.Eta) })
	if r.Err() == nil && (len(a.rungs) == 0 || (a.topRung >= 0 && len(a.rungs) > a.topRung+1)) {
		r.Failf("core: %d rungs", len(a.rungs))
	}
	maxID := -1 // the largest trial a rung names, checked once the trials are read
	entry := func() entry {
		e := entry{trialID: r.Int(), loss: r.Float64()}
		maxID = max(maxID, e.trialID)
		return e
	}
	for _, g := range a.rungs {
		for _, h := range [...]*entryHeap{&g.lower, &g.upper, &g.cand} {
			h.restore(r, entry)
		}
		readTable(r, 8, &g.recorded.words, r.Uint64)
		readTable(r, 8, &g.nominated.words, r.Uint64)
	}
	restoreState(r, a.cfg.RNG, a.arena, a.cfg.Space.Dim(), &a.trials, &a.retry, len(a.rungs), a.retryJob)
	if a.nextID = a.trials.Len(); maxID >= a.nextID && r.Err() == nil {
		r.Failf("core: a rung entry of trial %d, beyond the %d trials", maxID, a.nextID)
	}
	a.inc = readIncumbent(r, a.trials.Len(), func(t int) searchspace.Config { return *a.trials.At(t) })
	return r.Err()
}

// AppendState implements StateCodec: the head, each bracket's ASHA
// image, the budget accounting and the global incumbent.
func (ah *AsyncHyperband) AppendState(dst []byte) []byte {
	dst = appendHead(dst, "async-hyperband", ah.cfg.Space, setting{"eta", float64(ah.cfg.Eta)}, setting{"r", ah.cfg.MinResource},
		setting{"R", ah.cfg.MaxResource}, setting{"brackets", float64(len(ah.brackets))})
	for _, b := range ah.brackets {
		dst = b.AppendState(dst)
	}
	dst = appendList(appendList(dst, ah.assigned, wire.AppendFloat64), ah.quota, wire.AppendFloat64)
	dst = appendTable(wire.AppendUvarint(dst, uint64(ah.ptr)), &ah.prevResource, 0, wire.AppendFloat64)
	return ah.inc.appendTo(dst)
}

// RestoreState implements StateCodec; only a refused head leaves the
// scheduler as it was.
func (ah *AsyncHyperband) RestoreState(image []byte) error {
	r := wire.NewReader(image)
	n := len(ah.brackets)
	if err := checkHead(r, "async-hyperband", ah.cfg.Space, setting{"eta", float64(ah.cfg.Eta)}, setting{"r", ah.cfg.MinResource},
		setting{"R", ah.cfg.MaxResource}, setting{"brackets", float64(n)}); err != nil {
		return err
	}
	for _, b := range ah.brackets {
		if err := b.restore(r); err != nil {
			return err
		}
	}
	ah.assigned, ah.quota = readList(r, 8, r.Float64), readList(r, 8, r.Float64)
	ah.ptr = below(r, n, "bracket")
	readTable(r, 8, &ah.prevResource, r.Float64)
	if r.Err() == nil && (len(ah.assigned) != n || len(ah.quota) != n) {
		r.Failf("core: budgets of %d and %d brackets", len(ah.assigned), len(ah.quota))
	}
	trials := 0 // global ids below this have a bracket trial
	for b, br := range ah.brackets {
		trials = max(trials, ah.encodeID(b, br.trials.Len()-1)+1)
	}
	ah.inc = readIncumbent(r, trials, func(t int) searchspace.Config {
		b, local := ah.decodeID(t)
		if local >= ah.brackets[b].trials.Len() {
			r.Failf("core: incumbent trial %d is not in the checkpoint", t)
			return searchspace.Config{}
		}
		return *ah.brackets[b].trials.At(local)
	})
	r.ExpectEOF()
	if r.Err() != nil {
		return fmt.Errorf("core: async-hyperband checkpoint: %w", r.Err())
	}
	return nil
}

// AppendState implements StateCodec: the head, then appendState's part.
func (r *RandomSearch) AppendState(dst []byte) []byte {
	return appendState(appendHead(dst, "random", r.cfg.Space, setting{"R", r.cfg.MaxResource}), r.cfg.RNG, &r.trials, &r.retry, &r.inc)
}

// RestoreState implements StateCodec; only a refused head leaves the
// scheduler as it was.
func (r *RandomSearch) RestoreState(image []byte) error {
	rd := wire.NewReader(image)
	if err := checkHead(rd, "random", r.cfg.Space, setting{"R", r.cfg.MaxResource}); err != nil {
		return err
	}
	restoreState(rd, r.cfg.RNG, r.arena, r.cfg.Space.Dim(), &r.trials, &r.retry, 1, func(trial, _ int) Job { return r.job(trial) })
	r.inc = readIncumbent(rd, r.trials.Len(), func(t int) searchspace.Config { return *r.trials.At(t) })
	rd.ExpectEOF()
	if rd.Err() != nil {
		return fmt.Errorf("core: random checkpoint: %w", rd.Err())
	}
	return nil
}
