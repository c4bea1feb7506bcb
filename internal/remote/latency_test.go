package remote

// Tests for the per-job latency tracing plane: straggler detection
// visible on the event bus and in /v1/trace, clock-skew-proof stage
// clamping, timing propagation end to end over the stream, and the
// pprof HTTP surface.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/wire"
)

// traceSpans GETs /v1/trace with the query and decodes the reply.
func traceSpans(t *testing.T, base, query string) (int64, []JobSpan) {
	t.Helper()
	resp, err := http.Get(base + "/v1/trace" + query)
	if err != nil {
		t.Fatalf("GET /v1/trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace: status %d", resp.StatusCode)
	}
	var tr struct {
		Total int64     `json:"total"`
		Spans []JobSpan `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr.Total, tr.Spans
}

// mkTask builds a settled-looking task for driving observeSettle
// directly: submitted 2ms ago, granted 1ms ago.
func mkTask(trial int) *task {
	now := time.Now()
	return &task{
		payload:   JobPayload{Experiment: "exp", Trial: trial, Rung: 0},
		leaseID:   uint64(trial + 1),
		worker:    "w",
		submitted: now.Add(-2 * time.Millisecond),
		grantedAt: now.Add(-time.Millisecond),
	}
}

// TestStragglerEventAndTrace pins the straggler pipeline: once a rung
// has stragglerMinSamples settled jobs, an exec time beyond
// StragglerK x the rung's p95 publishes an EventStraggler on the bus
// and flags the span in /v1/trace.
func TestStragglerEventAndTrace(t *testing.T) {
	srv, err := NewServer(Options{Metrics: true, Events: true, StragglerK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub := srv.EventBus().Subscribe()

	out := Outcome{Loss: 0.5}
	for i := 0; i < stragglerMinSamples; i++ {
		srv.observeSettle(mkTask(i), JobTiming{DwellUs: 10, ExecUs: 100_000, BufUs: 10}, &out)
	}
	// 10s against a rung whose p95 is ~100ms: far beyond 3x.
	srv.observeSettle(mkTask(99), JobTiming{ExecUs: 10_000_000}, &out)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var straggler *obs.Event
scan:
	for {
		events, _, ok := sub.Next(ctx)
		if !ok {
			break
		}
		for i := range events {
			if events[i].Type == obs.EventStraggler {
				straggler = &events[i]
				break scan
			}
		}
	}
	if straggler == nil {
		t.Fatal("no straggler event on the bus")
	}
	if straggler.Trial != 99 || straggler.Experiment != "exp" {
		t.Fatalf("straggler event for trial %d/%q, want 99/exp", straggler.Trial, straggler.Experiment)
	}
	if straggler.DurMs < 9_000 || straggler.DurMs > 11_000 {
		t.Fatalf("straggler DurMs = %d, want ~10000", straggler.DurMs)
	}

	total, spans := traceSpans(t, srv.URL(), "?trial=99")
	if total != stragglerMinSamples+1 {
		t.Fatalf("trace total = %d, want %d", total, stragglerMinSamples+1)
	}
	if len(spans) != 1 || !spans[0].Straggler || spans[0].ExecUs != 10_000_000 {
		t.Fatalf("trace span for trial 99 = %+v, want one straggler of 10 s exec", spans)
	}
	// The fast jobs must not be flagged.
	_, fast := traceSpans(t, srv.URL(), "?trial=3")
	if len(fast) != 1 || fast[0].Straggler {
		t.Fatalf("fast job's span = %+v, want unflagged", fast)
	}
}

// TestClockSkewCannotCorruptStages drives hostile/broken worker
// timings through a settle: negative and absurdly large stage values
// must clamp into [0, maxStageDur], the settle residual must never go
// negative, and a negative heartbeat RTT must be dropped — whatever
// the fleet's clocks do, no histogram or span sees a negative or
// multi-day duration.
func TestClockSkewCannotCorruptStages(t *testing.T) {
	srv, err := NewServer(Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := Outcome{Loss: 1}

	srv.observeSettle(mkTask(1), JobTiming{DwellUs: -50_000, ExecUs: math.MaxInt64, BufUs: -1}, &out)
	// A worker whose stages exceed the server-side elapsed (skewed or
	// lying): residual clamps to zero.
	srv.observeSettle(mkTask(2), JobTiming{DwellUs: 3_600_000_000, ExecUs: 3_600_000_000, BufUs: 0}, &out)
	// A grant stamped "in the future" relative to settle must not
	// produce a negative total or queue wait.
	future := mkTask(3)
	future.submitted = time.Now().Add(time.Hour)
	future.grantedAt = time.Now().Add(2 * time.Hour)
	srv.observeSettle(future, JobTiming{ExecUs: 500}, &out)

	maxUs := int64(maxStageDur / time.Microsecond)
	_, spans := traceSpans(t, srv.URL(), "?n=10")
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, sp := range spans {
		for name, v := range map[string]int64{
			"queue": sp.QueueUs, "dwell": sp.DwellUs, "exec": sp.ExecUs,
			"buf": sp.BufUs, "settle": sp.SettleUs,
		} {
			if v < 0 {
				t.Errorf("trial %d: negative %s stage %d", sp.Trial, name, v)
			}
			if v > maxUs {
				t.Errorf("trial %d: %s stage %dus exceeds the %v clamp", sp.Trial, name, v, maxStageDur)
			}
		}
	}

	srv.observeHeartbeatRTT(-12)
	srv.observeHeartbeatRTT(0)
	if n := srv.lat.hbRTT.Count(); n != 0 {
		t.Fatalf("non-positive RTTs were observed (%d), want dropped", n)
	}
	srv.observeHeartbeatRTT(int64(48 * time.Hour / time.Microsecond))
	if got := srv.lat.hbRTT.Quantile(1); got > maxStageDur {
		t.Fatalf("RTT clamped to %v, want <= %v", got, maxStageDur)
	}
}

// streamHandshake performs a manual /v1/stream handshake as worker,
// presenting token. On an upgrade it returns 101 and the raw
// connection; any other answer returns its status, connection closed.
func streamHandshake(t *testing.T, base, worker, token string) (int, net.Conn, *bufio.Reader) {
	t.Helper()
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(streamReq{Version: ProtocolVersion, Token: token, WorkerID: worker})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", streamProto)
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return resp.StatusCode, nil, nil
	}
	return resp.StatusCode, conn, br
}

// streamDial is streamHandshake for a worker whose handshake must
// upgrade.
func streamDial(t *testing.T, base, worker string) (net.Conn, *bufio.Reader) {
	t.Helper()
	status, conn, br := streamHandshake(t, base, worker, "")
	if status != http.StatusSwitchingProtocols {
		t.Fatalf("handshake: status %d, want 101", status)
	}
	return conn, br
}

// streamLease leases as a worker does, over a real stream: it performs
// the handshake, sends the one lease poll q and returns the grants frame
// answering it, then closes the connection (the leases stay the
// worker's until they are reported or expire). A handshake that does
// not upgrade returns its status and no frame.
func streamLease(t *testing.T, base, worker string, q binLeaseReq) (int, binGrants) {
	t.Helper()
	status, conn, br := streamHandshake(t, base, worker, "")
	if status != http.StatusSwitchingProtocols {
		return status, binGrants{}
	}
	defer conn.Close()
	q.Seq = 1
	sendFrame(t, conn, appendLeaseReq(nil, q))
	_ = conn.SetReadDeadline(time.Now().Add(time.Duration(q.WaitMillis)*time.Millisecond + 10*time.Second))
	body, err := wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("lease poll: %v", err)
	}
	if body[0] != frameGrants {
		t.Fatalf("lease poll answered with frame type 0x%02x", body[0])
	}
	g, err := decodeGrants(wire.NewReader(body[1:]), nil)
	if err != nil {
		t.Fatalf("lease poll: %v", err)
	}
	if !g.Done && g.Seq != q.Seq {
		t.Fatalf("lease poll %d answered as seq %d", q.Seq, g.Seq)
	}
	return status, g
}

// framed wraps a frame body (type byte included) in its length prefix.
func framed(body []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// sendFrame writes one length-prefixed frame.
func sendFrame(t *testing.T, conn net.Conn, body []byte) {
	t.Helper()
	if _, err := conn.Write(framed(body)); err != nil {
		t.Fatal(err)
	}
}

// TestTimedWireEndToEnd runs a real agent against a real server and
// proves worker-measured timings arrive: settled spans carry the
// worker's exec time, the report-settle histogram fills, and exec_count
// reconciles with accepted reports.
func TestTimedWireEndToEnd(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		srv, err := NewServer(Options{Metrics: true, BatchSize: 4, LeaseTTL: time.Minute,
			FlushInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		const jobs = 12
		outcomes := make(chan Outcome, jobs)
		for i := 0; i < jobs; i++ {
			srv.Submit(JobPayload{Trial: i, Rung: i % 2, Names: []string{"lr", "momentum"}, Vec: []float64{0.1, 0.5}, To: 2},
				func(o Outcome) { outcomes <- o })
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// pureObjective finishes in under a microsecond, which truncates
		// to ExecUs == 0 on the wire; a short sleep makes every stage
		// measurable.
		slowObjective := func(ctx context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
			time.Sleep(2 * time.Millisecond)
			return pureObjective(ctx, cfg, from, to, state)
		}
		agentDone := make(chan error, 1)
		go func() {
			agentDone <- ServeAgent(ctx, AgentOptions{
				Server: srv.URL(), Slots: 2,
				Resolve: func(string) (exec.Objective, error) { return slowObjective, nil },
			})
		}()
		for i := 0; i < jobs; i++ {
			select {
			case o := <-outcomes:
				if o.Failed || o.Err != "" {
					t.Fatalf("job failed: %+v", o)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("jobs never settled")
			}
		}
		cancel()
		<-agentDone

		if n, c := srv.lat.execTime.Count(), srv.Counters(); n != c.Accepted {
			t.Fatalf("exec histogram count %d != accepted reports %d", n, c.Accepted)
		}
		if n := srv.lat.settleTime.Count(); n != jobs {
			t.Fatalf("settle histogram count = %d, want %d timed settles", n, jobs)
		}
		if n := srv.lat.queueWait.Count(); n == 0 {
			t.Fatal("queue-wait histogram empty")
		}
		_, spans := traceSpans(t, srv.URL(), "?n=100")
		if len(spans) != jobs {
			t.Fatalf("got %d spans, want %d", len(spans), jobs)
		}
		for _, sp := range spans {
			if sp.ExecUs <= 0 {
				t.Fatalf("span %+v has no exec time", sp)
			}
		}
	})
	// The JSON fallback — a reports frame POSTed to /v1/report while the
	// agent's stream is down — carries the same timings, entry by entry.
	t.Run("json", func(t *testing.T) {
		srv, err := NewServer(Options{Metrics: true, BatchSize: 2, LeaseTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for i := 0; i < 2; i++ {
			srv.Submit(JobPayload{Trial: i, To: 2}, func(Outcome) {})
		}
		_, reg := rawPost(t, srv.URL(), "/v1/register", map[string]interface{}{"v": ProtocolVersion})
		worker := reg["worker"].(string)
		_, g := streamLease(t, srv.URL(), worker, binLeaseReq{Max: 2, WaitMillis: 2000})
		if len(g.Grants) != 2 {
			t.Fatalf("leased %+v, want two grants", g)
		}
		id0, id1 := g.Grants[0].Job.ID, g.Grants[1].Job.ID
		status, ack := postFrame(t, srv.URL(), "/v1/report", "", worker, appendReports(nil, binReports{
			Reports: []exec.BinResponse{{ID: id0, Loss: 0.5}, {ID: id1, Loss: 0.25}},
			Timings: []JobTiming{{DwellUs: 10, ExecUs: 2000, BufUs: 5}, {DwellUs: 20, ExecUs: 700, BufUs: 9}},
		}))
		if status != http.StatusOK {
			t.Fatalf("report refused: %d %v", status, ack)
		}
		if n := srv.lat.execTime.Count(); n != 2 {
			t.Fatalf("exec histogram count = %d, want 2", n)
		}
		if n := srv.lat.settleTime.Count(); n != 2 {
			t.Fatalf("settle histogram count = %d, want 2", n)
		}
		for trial, want := range []JobSpan{{DwellUs: 10, ExecUs: 2000, BufUs: 5}, {DwellUs: 20, ExecUs: 700, BufUs: 9}} {
			_, spans := traceSpans(t, srv.URL(), fmt.Sprintf("?trial=%d", trial))
			if len(spans) != 1 || spans[0].DwellUs != want.DwellUs || spans[0].ExecUs != want.ExecUs || spans[0].BufUs != want.BufUs {
				t.Fatalf("trial %d's span = %+v, want dwell %d, exec %d, buffer %d us",
					trial, spans, want.DwellUs, want.ExecUs, want.BufUs)
			}
		}
	})
}

// TestDashboardAndPprof probes the token-gated pprof mount. (The HTML
// dashboard it once also fetched is gone; the name is kept so the
// test's history stays continuous.)
func TestDashboardAndPprof(t *testing.T) {
	srv, err := NewServer(Options{Metrics: true, AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// pprof: 401 without the admin token, 200 with it.
	resp, err := http.Get(srv.URL() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("pprof without token: status %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL()+"/debug/pprof/cmdline", nil)
	req.Header.Set("Authorization", "Bearer tok")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with token: status %d, want 200", resp.StatusCode)
	}
}
