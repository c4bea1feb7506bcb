package remote

// Agent side of the binary streaming wire. Once registered, the
// agent's fetcher dials /v1/stream, upgrades the connection, and the
// whole pipeline — lease polls, report flushes, heartbeats —
// multiplexes over the one socket as binary frames. A single reader
// goroutine dispatches the server's answers: grant batches to the
// fetcher (capacity one: a single poll is outstanding), report acks to
// the reporter (capacity ackWindow: as many report frames may be),
// heartbeat acks applied directly via a callback.
//
// Jobs are leased over the stream only. If it dies, the fetcher redials
// it on the next poll while reports and heartbeats already owed are
// POSTed, as the same frames, to /v1/report and /v1/heartbeat — and a
// handshake answered 410 routes through the agent's normal
// re-registration path.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// clientTable is the agent's record of one server-defined experiment
// table: the experiment grants citing it belong to and the parameter
// names its config vectors align with.
type clientTable struct {
	experiment string
	params     []string
}

// streamBatch is one decoded grants frame as the pipeline's records,
// one heldLease per grant, linked through next.
type streamBatch struct {
	seq    uint64
	done   bool
	leases *heldLease
}

// binStream is one live upgraded connection.
type binStream struct {
	c  net.Conn
	br *bufio.Reader
	// born anchors the stream's monotonic clock: heartbeat RTT is
	// measured as the difference of two time.Since(born) readings (send
	// in the heartbeat sender, ack arrival in the reader), exchanged
	// through hbSentNs without mixing in any wall clock.
	born time.Time
	// hbSentNs is the send time (nanos since born) of the heartbeat
	// whose ack is outstanding (0 = none); rttUs is the last measured
	// round trip, shipped on the next heartbeat.
	hbSentNs atomic.Int64
	rttUs    atomic.Int64

	// wmu serializes frame writes from the fetcher, reporter and
	// heartbeat goroutines.
	wmu sync.Mutex
	bw  *bufio.Writer

	grants chan streamBatch  // reader -> fetcher (cap 1)
	acks   chan binReportAck // reader -> reporter (cap ackWindow)
	// onExpired applies a heartbeat ack's expired-lease list; called
	// from the reader goroutine.
	onExpired func([]uint64)
	// spare supplies the records of a grants frame (agent.spare); nil,
	// every grant gets a new record.
	spare func(grants []binGrant) *heldLease

	// tables indexes the server's table definitions; reader-only state.
	tables map[uint64]*clientTable

	dead      chan struct{}
	closeOnce sync.Once
}

// dialStream performs the /v1/stream handshake for worker wid. On
// upgrade it returns the live stream; done reports a server answering
// "the run is over" instead of upgrading; any other rejection returns
// its HTTP status (0 for transport errors) so the caller can tell a
// lost registration (410 -> re-register) from a deterministic refusal.
func (a *agent) dialStream(ctx context.Context, wid string) (bs *binStream, done bool, status int, err error) {
	srv := a.serverURL()
	u, err := url.Parse(srv)
	if err != nil {
		return nil, false, 0, err
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, false, 0, err
	}
	body, err := json.Marshal(streamReq{Version: ProtocolVersion, Token: a.o.Token, WorkerID: wid})
	if err != nil {
		_ = conn.Close()
		return nil, false, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, srv+"/v1/stream", bytes.NewReader(body))
	if err != nil {
		_ = conn.Close()
		return nil, false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", streamProto)
	// The handshake itself is bounded; the upgraded stream is not.
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := req.Write(conn); err != nil {
		_ = conn.Close()
		return nil, false, 0, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		_ = conn.Close()
		return nil, false, 0, err
	}
	if resp.StatusCode == http.StatusSwitchingProtocols {
		_ = conn.SetDeadline(time.Time{})
		bs := &binStream{
			c:      conn,
			br:     br,
			born:   time.Now(),
			bw:     bufio.NewWriter(conn),
			grants: make(chan streamBatch, 1),
			acks:   make(chan binReportAck, ackWindow),
			tables: make(map[uint64]*clientTable),
			dead:   make(chan struct{}),
		}
		bs.onExpired, bs.spare = a.markExpired, a.spare
		go bs.reader()
		return bs, false, resp.StatusCode, nil
	}
	defer resp.Body.Close()
	defer conn.Close()
	if resp.StatusCode == http.StatusNoContent {
		// A closed or draining server answers the handshake with a
		// bodiless 204 rather than upgrading: the run is over.
		return nil, true, resp.StatusCode, nil
	}
	var we wireError
	_ = json.NewDecoder(resp.Body).Decode(&we)
	if we.Error == "" {
		we.Error = resp.Status
	}
	return nil, false, resp.StatusCode, fmt.Errorf("remote: /v1/stream: %s", we.Error)
}

// markExpired applies a heartbeat ack, from the stream reader or a
// POSTed beat's answer: leases the server no longer recognizes are
// already requeued elsewhere, so running jobs are cancelled and queued
// ones marked for the slots to skip.
func (a *agent) markExpired(ids []uint64) {
	a.mu.Lock()
	for _, id := range ids {
		if h := a.held[id]; h != nil {
			h.expired = true
			if h.cancel != nil {
				h.cancel()
			}
		}
	}
	a.mu.Unlock()
}

// alive reports whether the stream is still usable.
func (bs *binStream) alive() bool {
	select {
	case <-bs.dead:
		return false
	default:
		return true
	}
}

// close tears the stream down exactly once; every send and wait
// unblocks via the dead channel.
func (bs *binStream) close() {
	bs.closeOnce.Do(func() {
		close(bs.dead)
		_ = bs.c.Close()
	})
}

// send writes one frame body (type byte included) under the write
// lock. A failed write kills the stream.
func (bs *binStream) send(body []byte) bool {
	bs.wmu.Lock()
	defer bs.wmu.Unlock()
	if err := wire.WriteFrame(bs.bw, body); err != nil {
		bs.close()
		return false
	}
	return true
}

// reader dispatches server frames until the stream dies. A grants frame
// becomes the pipeline's records here: each copies its config vector and
// checkpoint out of the frame and keeps its table — the slot that runs
// the job resolves the vector into its own map, so nothing name-keyed is
// built per grant. The frame buffer and the float slab the vectors
// decode into are the reader's, reused frame to frame.
func (bs *binStream) reader() {
	defer bs.close()
	var buf []byte
	var g binGrants // every grants frame decodes into this one
	var slab []float64
	for {
		body, err := wire.ReadFrame(bs.br, buf)
		if err != nil {
			return
		}
		buf = body[:0]
		r := wire.NewReader(body[1:])
		switch body[0] {
		case frameGrants:
			// Sized for the most floats a frame this long can hold, so
			// no vector overflows into an allocation of its own.
			if cap(slab) < len(body)/8 {
				slab = make([]float64, 0, len(body)/8)
			}
			r.SetFloatSlab(slab)
			if err := g.decode(r, bs.tableLen); err != nil {
				return
			}
			for _, t := range g.Tables {
				bs.tables[t.Index] = &clientTable{experiment: t.Experiment, params: t.Params}
			}
			sb := streamBatch{seq: g.Seq, done: g.Done}
			if len(g.Grants) > 0 && bs.spare != nil {
				sb.leases = bs.spare(g.Grants)
			} else {
				sb.leases = newLeases(g.Grants, nil)
			}
			h := sb.leases
			for i := range g.Grants {
				gr := &g.Grants[i]
				ct := bs.tables[gr.Table]
				if ct == nil || len(ct.params) != len(gr.Job.Vec) {
					return // the decoder checked both; a slot indexes one by the other
				}
				h.hold(gr.Job, ct)
				h = h.next
			}
			select {
			case bs.grants <- sb:
			default:
				// Two unconsumed grant answers: the protocol allows a
				// single outstanding poll, so the stream lost sync.
				return
			}
		case frameReportAck:
			ack, err := decodeReportAck(r)
			if err != nil {
				return
			}
			select {
			case bs.acks <- ack:
			default:
				return
			}
		case frameHeartbeatAck:
			ids, err := decodeLeaseIDs(r)
			if err != nil {
				return
			}
			// Close the RTT sample for the outstanding heartbeat: both
			// endpoints are time.Since(born) readings, so the difference
			// is a pure monotonic delta.
			if sent := bs.hbSentNs.Swap(0); sent > 0 {
				if rtt := time.Since(bs.born).Nanoseconds() - sent; rtt > 0 {
					bs.rttUs.Store(rtt / int64(time.Microsecond))
				}
			}
			if len(ids) > 0 && bs.onExpired != nil {
				bs.onExpired(ids)
			}
		default:
			return
		}
	}
}

// tableLen resolves already-defined table indexes for binGrants.decode.
func (bs *binStream) tableLen(idx uint64) (int, bool) {
	ct := bs.tables[idx]
	if ct == nil {
		return 0, false
	}
	return len(ct.params), true
}
