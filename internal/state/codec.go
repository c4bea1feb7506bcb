package state

// The journal's byte format: a magic, then frames.
//
//	magic  "ASHAJNL" + byte(Version)
//	frame  body length uint32 LE | CRC32C(body) uint32 LE | body
//	body   type byte | fields (internal/wire: varints, float bits,
//	       length-prefixed strings)
//
//	'M' meta    experiment, algo strings; seed; params count + strings
//	'N' names   count + strings: the table later issue vectors follow
//	'I' issue   trial, rung, inherit+1, kind; target; one float per name
//	'R' report  trial, rung, failed; loss, true loss, resource, time
//	'S' snap    issued, completed, failed, final, trial count; time; per
//	            trial changed since the previous snap: trial; resource;
//	            checkpoint bytes (JSON, or none)
//	'C' checkpt issued, completed, failed, rung count, per rung
//	            completions; series count, per point time, loss, test
//	            loss; names; in-flight count, per job trial, rung,
//	            inherit+1, target, one float per name; then the
//	            scheduler's image, the rest of the frame
//
// Every value has one encoding (the shortest varint, 0 or 1 for a flag),
// so a decoded record re-encodes to the bytes it was read from.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/metrics"
	"repro/internal/wire"
)

const (
	magicPrefix = "ASHAJNL"
	frameHeader = 8       // length + CRC32C
	MaxFrame    = 1 << 28 // bound on a body; a longer one is corruption, not a record

	typeMeta, typeNames, typeIssue, typeReport, typeSnap, typeCheckpoint = 'M', 'N', 'I', 'R', 'S', 'C'
)

// errNoImage refuses a checkpoint without a scheduler image.
var errNoImage = errors.New("state: a checkpoint without a scheduler image")

var (
	magic      = append([]byte(magicPrefix), Version)
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	kinds      = [...]string{"", KindSample, KindPromote, KindRetry} // by an issue frame's kind field
	bit        = map[bool]int{true: 1}                               // a flag as a field
)

// The encode side: encoder methods that append one record's frames to
// buf — a Journal's own, or the buffer AppendCheckpoint is handed. A
// field the decoder would refuse latches bad instead: the record is the
// caller's bug and nothing of it reaches the file.
type encoder struct {
	buf []byte
	bad error
}

func (e *encoder) failf(format string, args ...interface{}) {
	if e.bad == nil {
		e.bad = fmt.Errorf(format, args...)
	}
}

// frame appends one frame of the given type; fill appends its fields.
func (e *encoder) frame(typ byte, fill func()) {
	at := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, 0, 0, 0, 0, typ)
	fill()
	body := e.buf[at+frameHeader:]
	if len(body) > MaxFrame {
		e.failf("state: a %d-byte record exceeds the %d-byte frame limit", len(body), MaxFrame)
	}
	binary.LittleEndian.PutUint32(e.buf[at:], uint32(len(body)))
	binary.LittleEndian.PutUint32(e.buf[at+4:], crc32.Checksum(body, castagnoli))
}

func (e *encoder) ints(vs ...int) {
	for _, v := range vs {
		if v < 0 || v > math.MaxInt32 {
			e.failf("state: record field %d outside [0, %d]", v, math.MaxInt32)
		}
		e.buf = wire.AppendUvarint(e.buf, uint64(v))
	}
}

func (e *encoder) floats(vs ...float64) {
	for _, v := range vs {
		e.buf = wire.AppendFloat64(e.buf, v)
	}
}

// strings appends a count and that many strings.
func (e *encoder) strings(ss []string) { e.buf = wire.AppendStrings(e.buf, ss) }

// meta opens the file: the magic, then the head record.
func (e *encoder) meta(m *Meta) {
	e.buf = append(e.buf, magic...)
	e.frame(typeMeta, func() {
		e.buf = wire.AppendUvarint(wire.AppendString(wire.AppendString(e.buf, m.Experiment), m.Algo), m.Seed)
		e.strings(m.Params)
	})
}

// issue encodes one issue record with vals as its configuration, one per
// name of is.Names; without vals, is.Config laid out against them. A
// names frame goes first when is.Names is not the slice the file last
// declared — identity, not content: it is what keeps the names frames of
// a recovered file where they were when its records are appended again.
func (j *Journal) issue(is *Issue, vals []float64) {
	if vals == nil {
		vals = j.vals[:0]
		for _, name := range is.Names {
			if v, ok := is.Config[name]; ok {
				vals = append(vals, v)
			}
		}
		if j.vals = vals; len(is.Config) != len(vals) {
			j.failf("state: issue configuration %v has names its table %q lacks", is.Config, is.Names)
		}
	}
	if len(vals) != len(is.Names) {
		j.failf("state: issue has %d configuration values for the %d names of %q", len(vals), len(is.Names), is.Names)
	}
	if n := len(is.Names); n != len(j.names) || (n > 0 && &is.Names[0] != &j.names[0]) {
		j.frame(typeNames, func() { j.strings(is.Names) })
	}
	j.frame(typeIssue, func() {
		j.ints(is.Trial, is.Rung, is.Inherit+1, slices.Index(kinds[:], is.Kind)) // -1, out of range, for no known kind
		j.floats(is.Target)
		j.floats(vals...)
	})
	if j.bad == nil {
		j.names = is.Names
	}
}

func (e *encoder) report(r *Report) {
	e.frame(typeReport, func() {
		e.ints(r.Trial, r.Rung, bit[r.Failed])
		e.floats(r.Loss, r.TrueLoss, r.Resource, r.Time)
	})
}

func (e *encoder) snapshot(s *Snapshot) {
	e.frame(typeSnap, func() {
		e.ints(s.Issued, s.Completed, s.Failed, bit[s.Final], len(s.Trials))
		e.floats(s.Time)
		for i := range s.Trials {
			t := &s.Trials[i]
			if len(t.State) > 0 && !wire.ValidJSON(t.State) {
				e.failf("state: trial %d's checkpoint is not valid JSON", t.Trial)
			}
			e.ints(t.Trial)
			e.floats(t.Resource)
			e.buf = wire.AppendBytes(e.buf, t.State)
		}
	})
}

// checkpoint encodes a checkpoint whose scheduler image is what sched
// appends, or c.Sched without one.
func (e *encoder) checkpoint(c *Checkpoint, sched func([]byte) []byte) {
	e.frame(typeCheckpoint, func() {
		e.ints(c.Issued, c.Completed, c.Failed, len(c.RungCompleted))
		e.ints(c.RungCompleted...)
		e.ints(len(c.Series))
		for _, p := range c.Series {
			e.floats(p.Time, p.ValLoss, p.TestLoss)
		}
		e.strings(c.Names)
		e.ints(len(c.InFlight))
		for i := range c.InFlight {
			p := &c.InFlight[i]
			if len(p.Vals) != len(c.Names) {
				e.failf("state: in-flight trial %d has %d configuration values for the %d names of %q", p.Trial, len(p.Vals), len(c.Names), c.Names)
			}
			e.ints(p.Trial, p.Rung, p.Inherit+1)
			e.floats(p.Target)
			e.floats(p.Vals...)
		}
		at := len(e.buf)
		if sched != nil {
			e.buf = sched(e.buf)
		} else {
			e.buf = append(e.buf, c.Sched...)
		}
		if len(e.buf) == at && e.bad == nil {
			e.bad = errNoImage
		}
	})
}

// frameAt returns the body of the frame at off, or false when the bytes
// there are not one whole frame whose checksum matches: a torn header or
// body, a length beyond the file or MaxFrame, a flipped bit.
func frameAt(data []byte, off int) ([]byte, bool) {
	if len(data)-off < frameHeader {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	if n == 0 || n > MaxFrame || n > len(data)-off-frameHeader {
		return nil, false
	}
	body := data[off+frameHeader : off+frameHeader+n]
	return body, crc32.Checksum(body, castagnoli) == binary.LittleEndian.Uint32(data[off+4:])
}

// The decode side: Scanner methods that read one frame body, under the
// cursor, into the fields the scanner owns and reuses (recover.go).

// carve returns the next element of a slab, or of a new one when full.
func carve[T any](slab *[]T) *T {
	if len(*slab) == cap(*slab) {
		*slab = make([]T, 0, 1024)
	}
	*slab = (*slab)[:len(*slab)+1]
	return &(*slab)[len(*slab)-1]
}

// upto reads a varint field that may not exceed max: a flag, a kind.
func (s *Scanner) upto(max int) int {
	v := s.r.Int()
	if v > max {
		s.r.Failf("state: field %d exceeds %d", v, max)
		return 0
	}
	return v
}

// strings reads a count and that many strings. The count is not trusted
// with an allocation: a lie runs the cursor off the frame first. While
// the strings read are known's, it returns known's own and allocates
// nothing: a checkpoint names its in-flight jobs' parameters, the head's,
// and decoding them afresh cost a few objects for every checkpoint that
// had a job out when it was written, which the timing of the run decides.
func (s *Scanner) strings(known []string) (ss []string) {
	i := 0
	for n := s.r.Int(); n > 0 && s.r.Err() == nil; n-- {
		b := s.r.Bytes()
		switch {
		case ss == nil && i < len(known) && string(b) == known[i]:
		case ss == nil:
			ss = append(slices.Clone(known[:i]), string(b))
		default:
			ss = append(ss, string(b))
		}
		i++
	}
	if ss == nil && i > 0 {
		return known[:i:i]
	}
	return ss
}

// readNames reads a names frame: the table later issue vectors follow.
func (s *Scanner) readNames() {
	was := len(s.names)
	if s.names = s.strings(nil); was+len(s.names) == 0 {
		s.r.Failf("state: names frame declares no names over none") // the encoder never does
	}
	sorted := slices.Clone(s.names)
	slices.Sort(sorted)
	if len(slices.Compact(sorted)) != len(s.names) {
		s.r.Failf("state: names table %q repeats a name", s.names)
	}
}

func (s *Scanner) readIssue() {
	r := &s.r
	s.issue = Issue{Trial: r.Int(), Rung: r.Int(), Inherit: r.Int() - 1, Kind: kinds[s.upto(len(kinds)-1)], Target: r.Float64(), Names: s.names}
	if s.Vals = s.Vals[:0]; r.Remaining() != 8*len(s.names) {
		r.Failf("state: issue carries %d bytes of configuration for a %d-name table", r.Remaining(), len(s.names))
	}
	for range s.names {
		s.Vals = append(s.Vals, r.Float64())
	}
	s.Rec = Record{V: Version, Issue: &s.issue}
}

func (s *Scanner) readReport() {
	r := &s.r
	s.report = Report{Trial: r.Int(), Rung: r.Int(), Failed: s.upto(1) == 1,
		Loss: r.Float64(), TrueLoss: r.Float64(), Resource: r.Float64(), Time: r.Float64()}
	s.Rec = Record{V: Version, Report: &s.report}
}

// readSnapshot reads a snap frame. Checkpoints alias the cursor's buffer:
// Scan hands it a copy, so that what keeps one outlives the scanner's
// window and never pins the journal image.
func (s *Scanner) readSnapshot() {
	r := &s.r
	s.snap = Snapshot{Issued: r.Int(), Completed: r.Int(), Failed: r.Int(), Final: s.upto(1) == 1, Trials: s.snap.Trials[:0]}
	n := r.Int()
	for s.snap.Time = r.Float64(); n > 0 && r.Err() == nil; n-- {
		t := TrialSnap{Trial: r.Int(), Resource: r.Float64(), State: r.Bytes()}
		if t.State != nil && !wire.ValidJSON(t.State) {
			r.Failf("state: trial %d's checkpoint is not valid JSON", t.Trial)
		}
		s.snap.Trials = append(s.snap.Trials, t)
	}
	s.Rec = Record{V: Version, Snap: &s.snap}
}

// readCheckpoint reads a checkpoint frame into fields the scanner reuses;
// the scheduler image aliases the frame where it lies.
func (s *Scanner) readCheckpoint() {
	r, c := &s.r, &s.ckpt
	c.Issued, c.Completed, c.Failed, c.RungCompleted = r.Int(), r.Int(), r.Int(), c.RungCompleted[:0]
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		c.RungCompleted = append(c.RungCompleted, r.Int())
	}
	c.Series = c.Series[:0]
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		c.Series = append(c.Series, metrics.Point{Time: r.Float64(), ValLoss: r.Float64(), TestLoss: r.Float64()})
	}
	c.Names, c.InFlight, s.ckptVals = s.strings(s.Meta.Params), c.InFlight[:0], s.ckptVals[:0]
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		p := Pending{Trial: r.Int(), Rung: r.Int(), Inherit: r.Int() - 1, Target: r.Float64()}
		at := len(s.ckptVals)
		for range c.Names {
			s.ckptVals = append(s.ckptVals, r.Float64())
		}
		p.Vals = s.ckptVals[at:len(s.ckptVals):len(s.ckptVals)]
		c.InFlight = append(c.InFlight, p)
	}
	if c.Sched = r.Rest(); len(c.Sched) == 0 {
		r.Failf("state: checkpoint without a scheduler image")
	}
	s.Rec = Record{V: Version, Checkpoint: c}
}
