package exec

// The job codec: the one encoding of a training job and its answer on
// both transports that carry jobs between processes, the lease stream
// of internal/remote and the subprocess pipe (subprocess.go). A config
// is a bare []float64 vector aligned with a parameter-name table the
// transport sent beforehand, and a checkpoint raw bytes. The primitives
// and the frame are internal/wire's: varints, IEEE-754 floats bit for
// bit, length-prefixed strings. Nothing here panics on arbitrary input
// (see fuzz_test.go and the fuzzers in internal/remote).

import (
	"fmt"

	"repro/internal/wire"
)

// WireVersion is the version of the job codec: BinRequest, BinResponse
// and the pipe's frames. It is checked once per connection, never per
// job: the subprocess pipe's hello frames carry it, and the lease
// stream's remote.ProtocolVersion, checked at registration, covers it.
const WireVersion = 1

// WireReader is internal/wire's bounds-checked decode cursor under the
// exec-qualified name the frozen bench/ module compiles against.
type WireReader = wire.Reader

// NewWireReader returns a cursor over b.
func NewWireReader(b []byte) *WireReader { return wire.NewReader(b) }

// BinRequest asks a worker to advance one trial's training from
// cumulative resource From to To, resuming from State (the trial's last
// checkpoint, empty on its first job). The configuration is a bare
// vector aligned with the connection's parameter-name table. ID
// sequences a process's jobs on the pipe and is the lease ID on the
// stream; the answer echoes it.
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

// BinResponse reports one finished job. Exactly one of the loss and
// checkpoint (IsErr false) or the error string (IsErr true) is
// meaningful; an error aborts the run (a training bug, not a crash).
type BinResponse struct {
	ID    uint64
	IsErr bool
	Loss  float64
	State []byte
	Err   string
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

// Frame types on the subprocess pipe: parent-to-worker below 0x80,
// worker-to-parent at or above it, the hello both ways.
const (
	frameHello  = 0x01 // both ways, first on the pipe: the sender's WireVersion
	frameTable  = 0x02 // parent→worker: the parameter names the next jobs' vectors align with
	frameJob    = 0x03 // parent→worker: one BinRequest
	frameResult = 0x81 // worker→parent: one BinResponse, answering the job before it
)

// pipeFrame is one frame of the pipe; kind says which field it carries.
type pipeFrame struct {
	kind    byte
	version uint64
	names   []string
	job     BinRequest
	result  BinResponse
}

// appendPipeFrame appends f's body: its type byte, then its field.
func appendPipeFrame(dst []byte, f *pipeFrame) []byte {
	dst = append(dst, f.kind)
	switch f.kind {
	case frameHello:
		return wire.AppendUvarint(dst, f.version)
	case frameTable:
		return wire.AppendStrings(dst, f.names)
	case frameJob:
		return AppendBinRequest(dst, f.job)
	}
	return AppendBinResponse(dst, f.result)
}

// decodePipeFrame decodes a frame body (as wire.ReadFrame returns it,
// never empty) into f. A job's state and a result's state alias body,
// and a job's vector reuses the previous one's array when it fits. A frame of an unknown type, truncated, with trailing
// bytes or a count its bytes cannot hold is refused whole.
func decodePipeFrame(body []byte, f *pipeFrame) error {
	var r wire.Reader
	r.Reset(body[1:])
	f.kind = body[0]
	switch f.kind {
	case frameHello:
		f.version = r.Uvarint()
	case frameTable:
		f.names = r.Strings()
	case frameJob:
		r.SetFloatSlab(f.job.Vec) // the last job's vector, done with: a worker runs one job at a time
		f.job = DecodeBinRequest(&r)
	case frameResult:
		f.result = DecodeBinResponse(&r)
	default:
		return fmt.Errorf("exec: unknown pipe frame type 0x%02x", f.kind)
	}
	r.ExpectEOF()
	return r.Err()
}
