package remote

// Server side of the binary streaming wire. A registered worker POSTs
// a small JSON handshake to /v1/stream; the server answers 101
// Switching Protocols, takes over the TCP connection, and from then on
// the two sides exchange binary frames (binwire.go): the worker's lease
// polls, report batches and heartbeats multiplexed over the one
// connection instead of one HTTP request each. Two goroutines serve a
// connection — a reader that settles reports and answers heartbeats
// inline, and a granter that long-polls the grant core on the worker's
// behalf — sharing the socket through a write mutex. A reports frame
// settles through the same core (Server.settleReports) whether it came
// on the stream or POSTed to /v1/report.
//
// The handshake deliberately answers pre-upgrade outcomes in plain
// HTTP: a closed or draining server replies 204 No Content (the agent
// reads "the run is over", exactly as from a Done grants frame), an
// unknown worker gets 410 (re-register), a bad token 401. Only a
// healthy handshake upgrades: a Done frame sent after the upgrade would
// race the connection's close in the agent's poll.

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/wire"
)

// streamProto names the protocol in the Upgrade header; streamUpgrade
// is the raw 101 response accepting a stream handshake.
const (
	streamProto   = "asha-binlease/1"
	streamUpgrade = "HTTP/1.1 101 Switching Protocols\r\nUpgrade: " + streamProto + "\r\nConnection: Upgrade\r\n\r\n"
)

// streamReq is the JSON envelope a worker POSTs: the /v1/stream
// handshake, and — carrying Frame, one reports or heartbeat frame body —
// a /v1/report or /v1/heartbeat fallback.
type streamReq struct {
	Version  int    `json:"v"`
	Token    string `json:"token,omitempty"`
	WorkerID string `json:"worker"`
	Frame    []byte `json:"frame,omitempty"`
}

// connTable is one entry of a connection's experiment table: the index
// grants cite and the parameter names the server promised for it.
type connTable struct {
	index  uint64
	params []string
}

// streamConn is one worker's live binary stream.
type streamConn struct {
	s      *Server
	c      net.Conn
	br     *bufio.Reader
	worker string

	// wmu serializes frame writes: grants from the granter goroutine,
	// acks from the reader, the shutdown Done from Close.
	wmu sync.Mutex
	bw  *bufio.Writer

	// leaseCh hands the reader's lease polls to the granter. Capacity
	// one: the client keeps a single lease poll outstanding, so a
	// second pending poll is a protocol violation.
	leaseCh chan binLeaseReq

	// tables maps experiment name -> table entry; granter-only state,
	// no lock needed.
	tables    map[string]*connTable
	nextTable uint64

	done      chan struct{}
	closeOnce sync.Once
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req streamReq
	if !s.decodeWorker(w, r, &req) {
		return
	}
	s.mu.Lock()
	if s.tab.closed || s.tab.draining {
		// The run is over (or draining for scale-down): say so without
		// upgrading; the agent reads a bodiless 204 as Done.
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	_, known := s.tab.workers[req.WorkerID]
	s.mu.Unlock()
	if !known {
		reject(w, http.StatusGone, "unknown worker; register again")
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		reject(w, http.StatusInternalServerError, "connection cannot be hijacked")
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		reject(w, http.StatusInternalServerError, fmt.Sprintf("hijack: %v", err))
		return
	}
	_ = conn.SetDeadline(time.Time{}) // the stream outlives any HTTP deadline
	sc := &streamConn{
		s:       s,
		c:       conn,
		br:      rw.Reader,
		bw:      rw.Writer,
		worker:  req.WorkerID,
		leaseCh: make(chan binLeaseReq, 1),
		tables:  make(map[string]*connTable),
		done:    make(chan struct{}),
	}
	if _, err := rw.WriteString(streamUpgrade); err != nil {
		_ = conn.Close()
		return
	}
	if err := rw.Flush(); err != nil {
		_ = conn.Close()
		return
	}
	// A Close racing past the pre-upgrade check either finds the conn in
	// s.streams (and shuts it down) or has already closed the server, and
	// the worker hears the run is over here, not on its next poll.
	s.mu.Lock()
	closed := s.tab.closed
	if !closed {
		s.streams[sc] = struct{}{}
	}
	s.mu.Unlock()
	if closed {
		sc.shutdown()
		return
	}
	go sc.granter()
	go sc.reader()
}

// writeFrame sends one frame (body includes the type byte) under the
// write lock. A failed write tears the connection down so the peer
// goroutines unblock.
func (sc *streamConn) writeFrame(body []byte) bool {
	sc.wmu.Lock()
	err := wire.WriteFrame(sc.bw, body)
	sc.wmu.Unlock()
	if err != nil {
		sc.close()
	}
	return err == nil
}

// close tears the connection down exactly once, unregistering it and
// unblocking both goroutines.
func (sc *streamConn) close() {
	sc.closeOnce.Do(func() {
		close(sc.done)
		_ = sc.c.Close()
		sc.s.mu.Lock()
		delete(sc.s.streams, sc)
		sc.s.mu.Unlock()
	})
}

// shutdown tells the worker the run is over — an unsolicited Done
// grants frame (seq 0; the client honors Done regardless of sequence)
// — then closes the connection. Called by Server.Close.
func (sc *streamConn) shutdown() {
	_ = sc.writeFrame(appendGrants(nil, binGrants{Done: true}))
	sc.close()
}

// reader consumes worker frames: reports are settled and acked inline,
// heartbeats extended and answered inline, lease polls handed to the
// granter. Any read or protocol error kills the connection; the worker
// POSTs the frames it still owes to /v1/report and /v1/heartbeat, and
// redials.
func (sc *streamConn) reader() {
	defer sc.close()
	var buf, enc []byte
	var ss settleScratch
	// One binReports for every frame: settle is done with it — accepted
	// checkpoints copied out — before the next frame is read.
	var rb binReports
	for {
		body, err := wire.ReadFrame(sc.br, buf)
		if err != nil {
			return
		}
		buf = body[:0] // reuse the (possibly grown) frame buffer
		r := wire.NewReader(body[1:])
		switch body[0] {
		case frameLease:
			q, err := decodeLeaseReq(r)
			if err != nil {
				return
			}
			select {
			case sc.leaseCh <- q:
			case <-sc.done:
				return
			default:
				// A second outstanding poll violates the protocol's
				// single-outstanding rule; there is no way to pair two
				// answers, so kill the connection.
				return
			}
		case frameReports:
			if err := rb.decode(r); err != nil {
				return
			}
			enc = sc.s.settleReports(sc.worker, &rb, true, enc[:0], &ss)
			if !sc.writeFrame(enc) {
				return
			}
		case frameHeartbeat:
			hb, err := decodeHeartbeat(r)
			if err != nil {
				return
			}
			enc = sc.s.heartbeat(sc.worker, hb, enc[:0])
			if !sc.writeFrame(enc) {
				return
			}
		default:
			return
		}
	}
}

// settleScratch is a stream reader's reusable working memory for
// settling report frames.
type settleScratch struct {
	accepted []bool
	settled  []*task
}

// settleReports is the settle core of both report paths, the stream
// reader (stream) and /v1/report: the table's settle in one hold of
// s.mu, then the tasks finish back to back — one frame, one scheduler
// wakeup — and the acceptance ack is returned appended to enc, for the
// caller to send after the results reached the engine. An entry names
// its lease by the response's own ID, so a response cannot be paired
// with another job's lease.
func (s *Server) settleReports(worker string, rb *binReports, stream bool, enc []byte, ss *settleScratch) []byte {
	n := len(rb.Reports)
	if cap(ss.accepted) < n {
		ss.accepted = make([]bool, n)
		ss.settled = make([]*task, n)
	}
	accepted, settled := ss.accepted[:n], ss.settled[:n]
	clear(accepted)
	clear(settled)
	s.mu.Lock()
	freed, stateBytes := s.tab.settle(worker, rb, stream, accepted, settled)
	s.mu.Unlock()
	// A stream reuses the frame buffer on its next read, so accepted
	// checkpoints must outlive it: copy them all into one arena (one
	// allocation per frame, not per report) before the tasks finish.
	arena := make([]byte, 0, stateBytes)
	for i, t := range settled {
		if t == nil {
			continue
		}
		var out Outcome
		if e := rb.Reports[i]; e.IsErr {
			out.Err = e.Err
		} else if len(e.State) > 0 && !wire.ValidJSON(e.State) {
			// A worker bug a retry would repeat, which would break the
			// trial's next job or the journal: the run ends here instead.
			out.Err = fmt.Sprintf("trial %d's checkpoint is not valid JSON", t.payload.Trial)
		} else {
			out.Loss = e.Loss
			if len(e.State) > 0 {
				start := len(arena)
				arena = append(arena, e.State...)
				out.State = arena[start:len(arena):len(arena)]
			}
		}
		s.observeSettle(t, rb.Timings[i], &out)
		t.finish(out)
	}
	if freed > 0 {
		s.recycle(settled)
	}
	return appendReportAck(enc, binReportAck{Seq: rb.Seq, Accepted: accepted})
}

// granterScratch is the granter goroutine's reusable working memory:
// one frame encode buffer, the grant core's copies of the granted jobs
// and the grant list, so a steady-state poll allocates nothing.
type granterScratch struct {
	enc    []byte
	jobs   []grantedJob
	grants []binGrant
	timer  *time.Timer // the long-poll wait, rearmed pass to pass
}

// granter services the worker's lease polls against the grant core,
// long-polling on the server's wake channel.
func (sc *streamConn) granter() {
	gs := granterScratch{timer: newStoppedTimer()}
	defer gs.timer.Stop()
	for {
		select {
		case q := <-sc.leaseCh:
			if !sc.serveLease(q, &gs) {
				return
			}
		case <-sc.done:
			return
		}
	}
}

// serveLease answers one lease poll: grant up to Max jobs — the room
// the worker has — capped by an explicit BatchSize, long-polling up to
// WaitMillis. Returns whether the connection is still usable.
func (sc *streamConn) serveLease(q binLeaseReq, gs *granterScratch) bool {
	s := sc.s
	wait := time.Duration(q.WaitMillis) * time.Millisecond
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}
	max := s.grantCap(q.Max)
	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		jobs, state, wake := s.tab.grant(sc.worker, max, q.Experiments, time.Now(), gs.jobs[:0])
		s.mu.Unlock()
		if jobs != nil {
			gs.jobs = jobs[:0]
		}
		switch state {
		case grantDone:
			// The granter stays alive after Done: the client is expected
			// to stop polling and close, but a straggling poll is
			// answered Done again rather than left hanging.
			gs.enc = appendGrants(gs.enc[:0], binGrants{Seq: q.Seq, Done: true})
			return sc.writeFrame(gs.enc)
		case grantGone:
			// The registration was invalidated mid-stream; kill the
			// connection so the client redials, hits 410 on the
			// handshake, and re-registers.
			sc.close()
			return false
		}
		if len(jobs) > 0 {
			g := binGrants{Seq: q.Seq, Grants: gs.grants[:0]}
			for i := range jobs {
				j := &jobs[i]
				if s.lat != nil {
					s.lat.queueWait.Observe(j.queued)
				}
				idx := sc.tableFor(&j.payload, &g)
				g.Grants = append(g.Grants, binGrant{
					Table: idx,
					Job: exec.BinRequest{
						ID:    j.lease,
						Trial: j.payload.Trial,
						From:  j.payload.From,
						To:    j.payload.To,
						Vec:   j.payload.Vec,
						State: j.payload.State,
					},
					GrantMs: j.grantedAt.UnixMilli(),
				})
			}
			gs.grants = g.Grants[:0]
			gs.enc = appendGrants(gs.enc[:0], g)
			return sc.writeFrame(gs.enc)
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			gs.enc = appendGrants(gs.enc[:0], binGrants{Seq: q.Seq})
			return sc.writeFrame(gs.enc)
		}
		rearm(gs.timer, remaining)
		select {
		case <-wake:
		case <-gs.timer.C:
		case <-sc.done:
			return false
		}
	}
}

// tableFor returns the connection's table index for the job's
// experiment, appending a new table entry to the outgoing frame the
// first time the experiment appears on this connection — or again if
// its parameter set ever changes. Tasks of one experiment share their
// searchspace's live name slice, so the comparison is usually one
// pointer check.
func (sc *streamConn) tableFor(p *JobPayload, g *binGrants) uint64 {
	if ct, ok := sc.tables[p.Experiment]; ok && sameParams(ct.params, p.Names) {
		return ct.index
	}
	idx := sc.nextTable
	sc.nextTable++
	sc.tables[p.Experiment] = &connTable{index: idx, params: p.Names}
	g.Tables = append(g.Tables, binTable{Index: idx, Experiment: p.Experiment, Params: p.Names})
	return idx
}

// sameParams reports whether two parameter-name lists are identical,
// with a pointer fast path for slices sharing a backing array.
func sameParams(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
