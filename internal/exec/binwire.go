package exec

// The binary job wire. The JSON Request/Response pair (subprocess.go)
// is the readable, debuggable job encoding; this file is its dense
// twin for hot paths that move hundreds of thousands of jobs per
// second. A binary job carries the same fields, but the configuration
// travels as a bare []float64 vector aligned with a parameter-name
// table both sides agreed on out of band (the remote wire negotiates
// the table at registration; see internal/remote), so parameter names
// never repeat on the wire, and the checkpoint travels as raw bytes
// with no base64 or quoting. Integers are unsigned LEB128 varints
// (encoding/binary), floats are their IEEE-754 bits little-endian —
// bit-exact round trips, so a loss or config value is never perturbed
// by a decimal representation. The primitives are internal/wire's,
// shared with the journal codec; nothing here panics on arbitrary
// input (see the fuzzers in internal/remote).

import (
	"time"

	"repro/internal/wire"
)

// BinWireVersion is the version of the binary job *payload* encoding —
// BinRequest/BinResponse bodies. The stream protocol wrapping these
// payloads (frame types, timing fields) versions separately as
// remote.ProtocolVersion and is checked once, at registration (not
// stamped per job, unlike the JSON wire's per-message "v" field), so
// version checks cost nothing on the per-job path.
const BinWireVersion = 1

// DurationUs converts a worker-measured monotonic duration to the
// microsecond count the timed wire shapes carry, clamping negatives to
// zero so a clock anomaly can never encode as a huge unsigned value.
func DurationUs(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64(d / time.Microsecond)
}

// WireReader is internal/wire's bounds-checked decode cursor under the
// exec-qualified name the frozen bench/ module compiles against.
type WireReader = wire.Reader

// NewWireReader returns a cursor over b.
func NewWireReader(b []byte) *WireReader { return wire.NewReader(b) }

// --- the job payload ---

// BinRequest is the dense form of Request: the configuration is a bare
// vector aligned with a parameter-name table negotiated out of band,
// and the checkpoint is raw bytes. ID doubles as the remote wire's
// lease ID, exactly as the JSON lease wire stamps Request.ID.
type BinRequest struct {
	ID    uint64
	Trial int
	From  float64
	To    float64
	Vec   []float64
	State []byte
}

// AppendBinRequest appends the request's binary encoding.
func AppendBinRequest(dst []byte, q BinRequest) []byte {
	dst = wire.AppendUvarint(dst, q.ID)
	dst = wire.AppendUvarint(dst, uint64(q.Trial))
	dst = wire.AppendFloat64(dst, q.From)
	dst = wire.AppendFloat64(dst, q.To)
	dst = wire.AppendUvarint(dst, uint64(len(q.Vec)))
	for _, v := range q.Vec {
		dst = wire.AppendFloat64(dst, v)
	}
	return wire.AppendBytes(dst, q.State)
}

// DecodeBinRequest reads one BinRequest at the cursor. Vec and State
// alias the cursor's buffer.
func DecodeBinRequest(r *WireReader) BinRequest {
	var q BinRequest
	q.ID = r.Uvarint()
	q.Trial = r.Int()
	q.From = r.Float64()
	q.To = r.Float64()
	q.Vec = r.Float64s()
	q.State = r.Bytes()
	return q
}

// BinResponse is the dense form of Response. Exactly one of the loss
// (IsErr false) or the error string (IsErr true) is meaningful,
// mirroring how the lease server folds a Response into an Outcome.
type BinResponse struct {
	ID    uint64
	IsErr bool
	Loss  float64
	State []byte
	Err   string
}

// BinResponseOf converts a worker-produced Response for the wire.
func BinResponseOf(leaseID uint64, resp Response) BinResponse {
	if resp.Error != "" {
		return BinResponse{ID: leaseID, IsErr: true, Err: resp.Error}
	}
	return BinResponse{ID: leaseID, Loss: resp.Loss, State: resp.State}
}

// AppendBinResponse appends the response's binary encoding.
func AppendBinResponse(dst []byte, p BinResponse) []byte {
	dst = wire.AppendUvarint(dst, p.ID)
	if p.IsErr {
		dst = append(dst, 1)
		return wire.AppendString(dst, p.Err)
	}
	dst = append(dst, 0)
	dst = wire.AppendFloat64(dst, p.Loss)
	return wire.AppendBytes(dst, p.State)
}

// DecodeBinResponse reads one BinResponse at the cursor. State aliases
// the cursor's buffer.
func DecodeBinResponse(r *WireReader) BinResponse {
	var p BinResponse
	p.ID = r.Uvarint()
	switch k := r.Byte(); k {
	case 0:
		p.Loss = r.Float64()
		p.State = r.Bytes()
	case 1:
		p.IsErr = true
		p.Err = r.String()
	default:
		r.Failf("exec: binary response kind %d unknown", k)
	}
	return p
}
