package remote

// The binary worker wire: the one encoding of every record a worker and
// the server exchange. Frames are length-prefixed and spoken over one
// persistent connection per worker (stream.go server side, binclient.go
// agent side), multiplexing lease polls, report batches and heartbeats.
// While a worker's stream is down, its reports and heartbeats travel as
// the same frames, one per POST to /v1/report or /v1/heartbeat, and the
// answer carries the ack frame the stream would have written
// (handleRecord in remote.go). Job configs travel as bare []float64
// vectors aligned with a per-connection parameter-name table (sent once
// per experiment, never per job), checkpoints as raw bytes.
//
// A frame is `uvarint(len(body)) || body`, body[0] the frame type: the
// framing internal/wire defines for both job transports (the subprocess
// pipe of internal/exec speaks it too). Worker-to-server types sit below
// 0x80, server-to-worker types at or above it. Lease polls and report batches carry a sequence number the
// answering frame echoes, so the single-outstanding-per-type client can
// assert it never pairs an answer with the wrong request. Heartbeats
// are fire-and-forget: the ack applies asynchronously.
//
// There is one frame per role and no per-connection negotiation: both
// ends speak ProtocolVersion or the worker was refused at
// /v1/register.
//
// The decoders are the hardening surface (see binfuzz_test.go): arbitrary
// bytes never panic, truncated/duplicated/oversized frames are
// rejected whole, and every frame that decodes re-encodes to identical
// bytes. Element counts are validated against the bytes actually
// present before any allocation, so a hostile count cannot balloon
// memory.

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/wire"
)

// Frame types. 0x02, 0x03 and 0x81 belonged to protocol version 1 and
// stay unassigned: a frame carrying one is rejected like any unknown
// type.
const (
	frameLease     = 0x01 // worker→server: lease poll
	frameReports   = 0x04 // worker→server: report batch with per-entry stage timings
	frameHeartbeat = 0x05 // worker→server: extend held leases; carries the last observed RTT

	frameReportAck    = 0x82 // server→worker: per-entry acceptance (answers frameReports)
	frameHeartbeatAck = 0x83 // server→worker: leases the worker no longer holds
	frameGrants       = 0x84 // server→worker: grant batch (answers frameLease; Done ends the run)
)

// newStoppedTimer returns a timer for rearm to set: each waiting
// goroutine of the lease path keeps one instead of a NewTimer per frame.
func newStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// rearm sets a timer to fire after d, whether it is running, fired
// unread, or read (go 1.22 timers: stop and drain before Reset).
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// leaseDedup finds a lease ID repeated within one frame without a map
// on the path a healthy peer takes. The server numbers leases upwards
// and a worker mostly reports them in that order, and while a frame's
// IDs strictly ascend none can repeat. The first ID that does not
// ascend builds the set from the IDs accepted before it and the check
// carries on against the set, so for any input the verdict is the one a
// set probed from the first entry would give. A reader that decodes
// frame after frame keeps one, reset between frames, and so one set.
type leaseDedup struct {
	last uint64
	seen map[uint64]struct{} // empty while the IDs have ascended
}

// reset readies d for the next frame, keeping its set's storage.
func (d *leaseDedup) reset() {
	clear(d.seen)
	d.last = 0
}

// repeats reports whether id equals one of the n IDs this frame has
// accepted so far, accepted(i) being the i-th; an id that does not is
// accepted.
func (d *leaseDedup) repeats(id uint64, n int, accepted func(i int) uint64) bool {
	if len(d.seen) == 0 {
		if n == 0 || id > d.last {
			d.last = id
			return false
		}
		if d.seen == nil {
			d.seen = make(map[uint64]struct{}, 2*n)
		}
		for i := 0; i < n; i++ {
			d.seen[accepted(i)] = struct{}{}
		}
	}
	if _, dup := d.seen[id]; dup {
		return true
	}
	d.seen[id] = struct{}{}
	return false
}

// --- frame messages ---

// binLeaseReq is one lease poll: grant up to Max jobs of the named
// experiments (empty = any), long-polling up to WaitMillis.
type binLeaseReq struct {
	Seq        uint64
	Max        int
	WaitMillis int64
	// Experiments, when non-empty, restricts the grant to jobs of the
	// named experiments: a partially-configured worker never receives
	// (and so never fails) jobs it has no objective for.
	Experiments []string
}

func appendLeaseReq(dst []byte, q binLeaseReq) []byte {
	dst = append(dst, frameLease)
	dst = wire.AppendUvarint(dst, q.Seq)
	dst = wire.AppendUvarint(dst, uint64(q.Max))
	dst = wire.AppendUvarint(dst, uint64(q.WaitMillis))
	return wire.AppendStrings(dst, q.Experiments)
}

func decodeLeaseReq(r *wire.Reader) (binLeaseReq, error) {
	var q binLeaseReq
	q.Seq = r.Uvarint()
	q.Max = r.Int()
	q.WaitMillis = int64(r.Int())
	q.Experiments = r.Strings()
	r.ExpectEOF()
	return q, r.Err()
}

// binTable defines one entry of a connection's experiment table: the
// grants that follow reference it by index instead of repeating the
// experiment and parameter names per job. A table entry is sent once
// per (connection, experiment) — and again only if the experiment's
// parameter set ever changes.
type binTable struct {
	Index      uint64
	Experiment string
	Params     []string
}

// binGrant is one leased job in a grants frame, referencing a table
// entry already defined on this connection (or in this frame). GrantMs
// is the server's grant wall-clock time in Unix milliseconds —
// informational (span timelines), never differenced against the
// worker's clock for a stage duration.
type binGrant struct {
	Table   uint64
	Job     exec.BinRequest // Job.ID is the lease ID
	GrantMs int64
}

// binGrants answers one lease poll: new table entries first, then the
// grants. No grants means the long poll timed out with nothing to hand
// out; Done tells the worker the run is over.
type binGrants struct {
	Seq    uint64
	Done   bool
	Tables []binTable
	Grants []binGrant
}

func appendGrants(dst []byte, g binGrants) []byte {
	dst = append(dst, frameGrants)
	dst = wire.AppendUvarint(dst, g.Seq)
	if g.Done {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = wire.AppendUvarint(dst, uint64(len(g.Tables)))
	for _, t := range g.Tables {
		dst = wire.AppendUvarint(dst, t.Index)
		dst = wire.AppendString(dst, t.Experiment)
		dst = wire.AppendStrings(dst, t.Params)
	}
	dst = wire.AppendUvarint(dst, uint64(len(g.Grants)))
	for _, gr := range g.Grants {
		dst = wire.AppendUvarint(dst, gr.Table)
		dst = exec.AppendBinRequest(dst, gr.Job)
		dst = wire.AppendUvarint(dst, uint64(gr.GrantMs))
	}
	return dst
}

// decode parses and validates one grants frame body (type byte
// stripped) into g. tableLen reports the parameter count of an
// already-known table index (ok false for unknown): the frame's own
// tables extend that set. Validation is structural: no lease granted
// twice (one worker would run the same job twice), no grant against an
// undefined table, every vector exactly as long as its table — a frame
// failing any check is rejected whole. It reuses the capacity of g's
// Grants: a stream reader decodes every frame into one binGrants it has
// converted to held leases before it reads the next. (Entries past the
// new length keep the last longer frame's vectors and checkpoints
// reachable.)
func (g *binGrants) decode(r *wire.Reader, tableLen func(idx uint64) (int, bool)) error {
	*g = binGrants{Seq: r.Uvarint(), Done: r.Byte() != 0, Grants: g.Grants[:0]}
	nt := r.Int()
	if r.Err() == nil && nt > r.Remaining() {
		return fmt.Errorf("remote: grants frame declares %d tables in %d bytes", nt, r.Remaining())
	}
	var frameTables map[uint64]int // stays nil in the usual frame, which defines none
	for i := 0; i < nt && r.Err() == nil; i++ {
		var t binTable
		t.Index = r.Uvarint()
		t.Experiment = r.String()
		t.Params = r.Strings()
		if _, dup := frameTables[t.Index]; dup {
			return fmt.Errorf("remote: grants frame defines table %d twice", t.Index)
		}
		if frameTables == nil {
			frameTables = make(map[uint64]int, nt-i)
		}
		frameTables[t.Index] = len(t.Params)
		g.Tables = append(g.Tables, t)
	}
	ng := r.Int()
	if r.Err() == nil && ng > r.Remaining() {
		return fmt.Errorf("remote: grants frame declares %d grants in %d bytes", ng, r.Remaining())
	}
	// Presize for the declared count, capped: the count is validated
	// against bytes present only loosely (>= 1 byte per grant), so a
	// hostile frame must not reserve gigabytes up front.
	if hint := ng; hint > cap(g.Grants) && r.Err() == nil {
		if hint > 4096 {
			hint = 4096
		}
		g.Grants = make([]binGrant, 0, hint)
	}
	var dedup leaseDedup
	for i := 0; i < ng && r.Err() == nil; i++ {
		var gr binGrant
		gr.Table = r.Uvarint()
		gr.Job = exec.DecodeBinRequest(r)
		gr.GrantMs = int64(r.Uvarint())
		if r.Err() != nil {
			break
		}
		want, ok := frameTables[gr.Table]
		if !ok && tableLen != nil {
			want, ok = tableLen(gr.Table)
		}
		if !ok {
			return fmt.Errorf("remote: grant %d references undefined table %d", i, gr.Table)
		}
		if len(gr.Job.Vec) != want {
			return fmt.Errorf("remote: grant of lease %d carries %d config values for a %d-parameter table", gr.Job.ID, len(gr.Job.Vec), want)
		}
		if dedup.repeats(gr.Job.ID, len(g.Grants), func(i int) uint64 { return g.Grants[i].Job.ID }) {
			return fmt.Errorf("remote: grants frame grants lease %d twice", gr.Job.ID)
		}
		g.Grants = append(g.Grants, gr)
	}
	r.ExpectEOF()
	return r.Err()
}

// JobTiming carries one finished job's worker-measured stage durations,
// in microseconds. Every field is a monotonic-clock delta taken on the
// worker (never a difference of wall-clock readings across machines),
// so clock skew between fleet hosts cannot produce negative or inflated
// stages; the server additionally clamps each stage to a sane range at
// settle.
type JobTiming struct {
	// DwellUs: grant received by the worker → job dequeued by a slot
	// (wire transit is excluded; this is prefetch-queue dwell).
	DwellUs int64
	// ExecUs: objective execution, dequeue → result ready.
	ExecUs int64
	// BufUs: result ready → report flush left the worker.
	BufUs int64
}

// durationUs converts a worker-measured monotonic duration to a
// JobTiming field, clamping negatives to zero so a clock anomaly can
// never encode as a huge unsigned value.
func durationUs(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64(d / time.Microsecond)
}

// binReports delivers a batch of finished jobs with one JobTiming per
// entry, aligned with Reports. Entries settle independently: a lease
// that expired mid-flight rejects only its own entry. Each entry's
// BinResponse.ID is its lease ID, and it encodes as the BinResponse
// followed by three uvarints (dwell, exec, buffer — all microseconds of
// the worker's monotonic clock).
type binReports struct {
	Seq     uint64
	Reports []exec.BinResponse
	Timings []JobTiming
	dedup   leaseDedup // decode's, kept frame to frame
}

func appendReports(dst []byte, rb binReports) []byte {
	dst = append(dst, frameReports)
	dst = wire.AppendUvarint(dst, rb.Seq)
	dst = wire.AppendUvarint(dst, uint64(len(rb.Reports)))
	for i, e := range rb.Reports {
		dst = exec.AppendBinResponse(dst, e)
		var tm JobTiming
		if i < len(rb.Timings) {
			tm = rb.Timings[i]
		}
		dst = wire.AppendUvarint(dst, uint64(tm.DwellUs))
		dst = wire.AppendUvarint(dst, uint64(tm.ExecUs))
		dst = wire.AppendUvarint(dst, uint64(tm.BufUs))
	}
	return dst
}

// decode parses and validates one reports frame body into rb:
// non-empty, and no lease settled twice — a duplicated entry could
// settle one lease with two different results. It reuses the capacity
// of rb's Reports and Timings and its duplicate set: a stream reader
// decodes every frame into one binReports it is done with before it
// reads the next.
func (rb *binReports) decode(r *wire.Reader) error {
	*rb = binReports{Seq: r.Uvarint(), Reports: rb.Reports[:0], Timings: rb.Timings[:0], dedup: rb.dedup}
	rb.dedup.reset()
	n := r.Int()
	if r.Err() == nil && n > r.Remaining() {
		return fmt.Errorf("remote: reports frame declares %d entries in %d bytes", n, r.Remaining())
	}
	if hint := n; hint > cap(rb.Reports) && r.Err() == nil {
		if hint > 4096 {
			hint = 4096
		}
		rb.Reports = make([]exec.BinResponse, 0, hint)
		rb.Timings = make([]JobTiming, 0, hint)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		e := exec.DecodeBinResponse(r)
		var tm JobTiming
		tm.DwellUs = int64(r.Uvarint())
		tm.ExecUs = int64(r.Uvarint())
		tm.BufUs = int64(r.Uvarint())
		if r.Err() != nil {
			break
		}
		if rb.dedup.repeats(e.ID, len(rb.Reports), func(i int) uint64 { return rb.Reports[i].ID }) {
			return fmt.Errorf("remote: reports frame settles lease %d twice", e.ID)
		}
		rb.Reports = append(rb.Reports, e)
		rb.Timings = append(rb.Timings, tm)
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return err
	}
	if len(rb.Reports) == 0 {
		return fmt.Errorf("remote: reports frame carries no reports")
	}
	return nil
}

// binHeartbeat extends the listed leases and carries the round-trip
// time the worker measured for its previous heartbeat (0 = none
// measured yet). Shipping the previous beat's RTT keeps the heartbeat
// fire-and-forget — no wait for the ack on the send path.
type binHeartbeat struct {
	RttUs  int64
	Leases []uint64
}

func appendHeartbeat(dst []byte, hb binHeartbeat) []byte {
	dst = append(dst, frameHeartbeat)
	dst = wire.AppendUvarint(dst, uint64(hb.RttUs))
	return appendLeaseIDs(dst, hb.Leases)
}

func decodeHeartbeat(r *wire.Reader) (binHeartbeat, error) {
	hb := binHeartbeat{RttUs: int64(r.Uvarint())}
	var err error
	hb.Leases, err = decodeLeaseIDs(r)
	return hb, err
}

// binReportAck answers a reports frame with per-entry acceptance,
// aligned index-for-index, packed as a bitmap.
type binReportAck struct {
	Seq      uint64
	Accepted []bool
}

func appendReportAck(dst []byte, a binReportAck) []byte {
	dst = append(dst, frameReportAck)
	dst = wire.AppendUvarint(dst, a.Seq)
	dst = wire.AppendUvarint(dst, uint64(len(a.Accepted)))
	var cur byte
	for i, ok := range a.Accepted {
		if ok {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(a.Accepted)%8 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

func decodeReportAck(r *wire.Reader) (binReportAck, error) {
	var a binReportAck
	a.Seq = r.Uvarint()
	n := r.Int()
	if r.Err() == nil && (n+7)/8 > r.Remaining() {
		return a, fmt.Errorf("remote: report ack declares %d entries in %d bytes", n, r.Remaining())
	}
	if n > 0 && r.Err() == nil {
		a.Accepted = make([]bool, n)
		var cur byte
		for i := range a.Accepted {
			if i%8 == 0 {
				cur = r.Byte()
			}
			a.Accepted[i] = cur&(1<<(i%8)) != 0
		}
	}
	r.ExpectEOF()
	return a, r.Err()
}

// appendHeartbeatAck answers a heartbeat with the subset of its leases
// the worker no longer holds (expired and requeued).
func appendHeartbeatAck(dst []byte, expired []uint64) []byte {
	return appendLeaseIDs(append(dst, frameHeartbeatAck), expired)
}

// appendLeaseIDs and decodeLeaseIDs are the counted lease-ID list that
// ends a heartbeat frame and is the whole of its ack.
func appendLeaseIDs(dst []byte, ids []uint64) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = wire.AppendUvarint(dst, id)
	}
	return dst
}

func decodeLeaseIDs(r *wire.Reader) ([]uint64, error) {
	n := r.Int()
	if r.Err() == nil && n > r.Remaining() {
		return nil, fmt.Errorf("remote: heartbeat frame declares %d leases in %d bytes", n, r.Remaining())
	}
	var ids []uint64
	for i := 0; i < n && r.Err() == nil; i++ {
		ids = append(ids, r.Uvarint())
	}
	r.ExpectEOF()
	return ids, r.Err()
}
