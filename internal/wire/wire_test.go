package wire

import (
	"encoding/binary"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	b := AppendUvarint(nil, 300)
	b = AppendFloat64(b, math.Copysign(0, -1))
	b = AppendString(b, "lr")
	b = AppendBytes(b, nil)
	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Errorf("varint %d", v)
	}
	if v := r.Float64(); math.Float64bits(v) != 1<<63 {
		t.Errorf("float bits %x", math.Float64bits(v))
	}
	if s := r.String(); s != "lr" {
		t.Errorf("string %q", s)
	}
	if b := r.Bytes(); b != nil {
		t.Errorf("empty byte string decoded as %v", b)
	}
	if r.ExpectEOF(); r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// A value has one encoding: a varint padded with a zero group is
// refused, as the journal's byte-for-byte re-encoding relies on.
func TestUvarintRefusesPadding(t *testing.T) {
	for _, b := range [][]byte{{0x80, 0x00}, {0x87, 0x80, 0x00}} {
		if r := NewReader(b); r.Uvarint() != 0 || r.Err() == nil {
			t.Errorf("padded varint %x accepted", b)
		}
	}
	if r := NewReader([]byte{0x00}); r.Uvarint() != 0 || r.Err() != nil {
		t.Errorf("plain zero refused: %v", r.Err())
	}
	// Every first byte, alone at the end of the buffer or followed by a
	// byte that ends, continues or pads it, reads as binary.Uvarint reads
	// it less the padded forms; a latched error reads 0 where it stands.
	for first := 0; first < 256; first++ {
		for _, tail := range [][]byte{nil, {0x00}, {0x01}, {0x80}, {0x80, 0x01}} {
			b := append([]byte{0x2a, byte(first)}, tail...)
			want, n := binary.Uvarint(b[1:])
			if n > 1 && b[n] == 0 {
				n = 0
			}
			r := NewReader(b)
			r.Byte()
			got := r.Uvarint()
			switch {
			case n <= 0 && (got != 0 || r.Err() == nil || r.Remaining() != len(b)-1):
				t.Errorf("% x: read %d, err %v, %d left; want refused where it stands", b[1:], got, r.Err(), r.Remaining())
			case n > 0 && (got != want || r.Err() != nil || r.Remaining() != len(b)-1-n):
				t.Errorf("% x: read %d, err %v, %d left; want %d, %d left", b[1:], got, r.Err(), r.Remaining(), want, len(b)-1-n)
			}
			r = NewReader(b[1:])
			if r.Failf("latched"); r.Uvarint() != 0 || r.Remaining() != len(b)-1 {
				t.Errorf("% x after an error: advanced to %d left", b[1:], r.Remaining())
			}
		}
	}
}

// A count is checked against the bytes present before anything is
// allocated from it, including counts whose byte size overflows.
func TestFloat64sRefusesHostileCounts(t *testing.T) {
	for _, n := range []uint64{2, 1 << 61, math.MaxUint64} {
		r := NewReader(append(AppendUvarint(nil, n), make([]byte, 8)...))
		if v := r.Float64s(); v != nil || r.Err() == nil {
			t.Errorf("count %d over 8 bytes: %v, err %v", n, v, r.Err())
		}
	}
}

func TestResetClearsTheLatchedError(t *testing.T) {
	r := NewReader(nil)
	r.Byte()
	first := r.Err()
	if r.Failf("later"); first == nil || r.Err() != first {
		t.Fatalf("first error not latched: %v then %v", first, r.Err())
	}
	if r.Reset([]byte{7}); r.Err() != nil || r.Byte() != 7 || r.Remaining() != 0 {
		t.Fatalf("Reset left err %v, %d remaining", r.Err(), r.Remaining())
	}
}
