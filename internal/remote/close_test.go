package remote

import (
	"net/http"
	"runtime"
	"testing"
	"time"
)

// TestClosedServerLetsGoOfTheRun pins what closeGrace promises: for
// three seconds after Close the listener still answers — a stream
// handshake gets 204, the run is over — and what answers is the server
// alone. The run it served — everything behind
// the control plane (the engine, every scheduler) and behind the
// settled tasks of its newest chunk (each points at its lane and the
// lane's trial table) — must be collectable as soon as Close returns.
// A process that runs experiment after experiment would otherwise carry
// as many finished runs as fit in the window, a heap whose size depends
// on how fast the runs go.
func TestClosedServerLetsGoOfTheRun(t *testing.T) {
	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	type run struct{ state [1 << 10]byte }
	freed := make(chan string, 2)
	pin := func(via string) *run {
		r := new(run)
		runtime.SetFinalizer(r, func(*run) { freed <- via })
		return r
	}
	settled := make(chan Outcome, 1)
	func() {
		byControl, byTask := pin("control plane"), pin("task chunk")
		srv.SetControl(struct {
			ControlPlane
			run *run
		}{run: byControl})
		srv.Submit(JobPayload{Trial: 1, To: 1}, func(o Outcome) {
			_ = byTask.state[0]
			settled <- o
		})
	}()
	srv.Close()
	if o := <-settled; !o.Failed {
		t.Fatalf("job pending at Close settled %+v, want Failed", o)
	}

	deadline := time.Now().Add(closeGrace - time.Second)
	for pending := map[string]bool{"control plane": true, "task chunk": true}; len(pending) > 0; {
		runtime.GC()
		select {
		case via := <-freed:
			delete(pending, via)
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("closed server still pins the run through %v", pending)
			}
		}
	}
	// All of it went while the server was still up, answering a stream
	// handshake that the run is over.
	if status, _ := streamLease(t, srv.URL(), "w1", binLeaseReq{Max: 1}); status != http.StatusNoContent {
		t.Fatalf("closed server answered a stream handshake %d inside the grace window, want 204", status)
	}
}
