// Package wire holds the binary codec primitives the job wire
// (internal/exec, internal/remote) and the journal (internal/state)
// share: append-style encoders, one bounds-checked decode cursor, and
// the length-prefixed frame both job transports — the lease stream and
// the subprocess pipe — speak.
// Integers are unsigned LEB128 varints, floats are their IEEE-754 bits
// little-endian — bit-exact round trips, so a loss or config value is
// never perturbed by a decimal representation — and byte strings are
// length-prefixed. It is a leaf package: state sits below backend and
// exec in the import graph, so the primitives cannot live in either.
// For the same reason it holds the JSON number check both apply to a
// trial's checkpoint.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// AppendUvarint appends v as an unsigned LEB128 varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendFloat64 appends v's IEEE-754 bits little-endian.
func AppendFloat64(dst []byte, v float64) []byte {
	return AppendUint64(dst, math.Float64bits(v))
}

// AppendUint64 appends v as eight bytes little-endian: a bit word, which
// a varint would spell in up to ten.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendStrings appends a count-prefixed list of strings.
func AppendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// Reader is a bounds-checked decode cursor over one message body. The
// first malformed read latches an error; every later read returns a zero
// value, so a decoder runs straight through and checks Err() once.
// Bytes/Float64s alias or derive from the underlying buffer — callers
// that outlive the buffer must copy. Nothing here panics on arbitrary
// input.
type Reader struct {
	buf  []byte
	off  int
	err  error
	slab []float64
}

// NewReader returns a cursor over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Reset points the cursor at b, clearing any latched error; the float
// slab, if armed, keeps filling.
func (r *Reader) Reset(b []byte) { r.buf, r.off, r.err = b, 0, nil }

// SetFloatSlab arms the cursor with a shared backing array for
// Float64s results: vectors are carved out of slab as capped subslices
// while capacity lasts, so a batch decode allocates no vector of its
// own, and a caller done with the vectors may arm the same slab again.
// Vectors that overflow the slab fall back to their own allocation —
// never a reallocation that would move earlier vectors.
func (r *Reader) SetFloatSlab(slab []float64) { r.slab = slab[:0] }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left unread.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Failf latches a decode error, unless one is latched already: decoders
// built on the cursor report their own violations (an unknown kind byte)
// through the same single Err() check.
func (r *Reader) Failf(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.Failf("wire: truncated (byte at offset %d)", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads one unsigned LEB128 varint. Only the shortest encoding
// of a value is accepted, so every message has exactly one byte form.
// A byte below 0x80 is a whole varint, and its value's only encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		r.off++
		return uint64(r.buf[r.off-1])
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || (n > 1 && r.buf[r.off+n-1] == 0) {
		r.Failf("wire: truncated, overlong or padded varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Int reads a varint and rejects values that do not fit a non-negative
// int (trial numbers, counts).
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Failf("wire: value %d out of range", v)
		return 0
	}
	return int(v)
}

// Float64 reads one little-endian IEEE-754 float.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Uint64 reads eight bytes little-endian.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.Failf("wire: truncated (8-byte word at offset %d)", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Bytes reads a length-prefixed byte string. The result aliases the
// underlying buffer; an empty string decodes as nil.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.Failf("wire: byte string of %d bytes exceeds the %d remaining", n, r.Remaining())
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b
}

// String reads a length-prefixed string (copies out of the buffer).
func (r *Reader) String() string { return string(r.Bytes()) }

// Strings reads a count-prefixed list of strings; nil when empty. Every
// string costs at least its length byte, so a count the bytes left
// cannot hold is refused before anything is allocated.
func (r *Reader) Strings() []string {
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.Failf("wire: %d strings in the %d bytes remaining", n, r.Remaining())
	}
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}

// Float64s reads a count-prefixed dense float vector; nil when empty.
func (r *Reader) Float64s() []float64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining())/8 {
		r.Failf("wire: float vector of %d values exceeds the %d bytes remaining", n, r.Remaining())
		return nil
	}
	if n == 0 {
		return nil
	}
	var out []float64
	if start := len(r.slab); r.slab != nil && cap(r.slab)-start >= int(n) {
		r.slab = r.slab[:start+int(n)]
		out = r.slab[start : start+int(n) : start+int(n)]
	} else {
		out = make([]float64, n)
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
		r.off += 8
	}
	return out
}

// Rest reads every byte left: the last field of a message that runs to
// its end. It aliases the underlying buffer.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// ExpectEOF latches an error unless the cursor consumed the whole
// buffer — a frame with trailing garbage is rejected whole, never
// half-applied.
func (r *Reader) ExpectEOF() {
	if r.err == nil && r.off != len(r.buf) {
		r.Failf("wire: message has %d trailing bytes", len(r.buf)-r.off)
	}
}

// MaxFrameBody bounds one frame's body: far above any sane batch, far
// below what could exhaust memory on a hostile length prefix.
const MaxFrameBody = 16 << 20

// ReadFrame reads one frame — `uvarint(len(body)) || body`, body[0] the
// frame type — into buf (grown as needed) and returns the filled prefix.
// An empty or oversized frame is an error that kills the connection: a
// corrupted length-prefixed stream has no resync point. A clean end of
// input before a frame is io.EOF.
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > MaxFrameBody {
		return nil, fmt.Errorf("wire: frame of %d bytes: a frame holds 1 to %d", n, MaxFrameBody)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("wire: frame truncated: %w", err)
	}
	return buf, nil
}

// WriteFrame writes one frame — length prefix, body (type byte
// included) — and flushes it: one write to the connection or pipe. The
// prefix goes out byte-wise: a header array handed to Write escapes to
// the heap on every frame. Callers serialize writes to bw.
func WriteFrame(bw *bufio.Writer, body []byte) error {
	n := uint64(len(body))
	for ; n >= 0x80; n >>= 7 {
		_ = bw.WriteByte(byte(n) | 0x80) // a failed write sticks: Flush returns it
	}
	_ = bw.WriteByte(byte(n))
	_, _ = bw.Write(body)
	return bw.Flush()
}

// ValidJSON reports whether b is valid JSON, exactly as json.Valid does,
// deciding a bare number without the general scanner.
func ValidJSON(b []byte) bool { return JSONNumber(b) || json.Valid(b) }

// JSONNumber reports whether b is one JSON number (RFC 8259 §6) and
// nothing else, no space around it:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
// What it accepts, json.Valid accepts.
func JSONNumber(b []byte) bool {
	i, ok := 0, false
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	switch {
	case i == len(b) || b[i] < '0' || b[i] > '9':
		return false
	case b[i] == '0':
		i++
	default:
		i, _ = digits(b, i)
	}
	if i < len(b) && b[i] == '.' {
		if i, ok = digits(b, i+1); !ok {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, ok = digits(b, i); !ok {
			return false
		}
	}
	return i == len(b)
}

// digits skips the decimal digits from b[i], reporting whether it found one.
func digits(b []byte, i int) (int, bool) {
	at := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i, i > at
}
