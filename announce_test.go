package asha

// Tests of a fleet run's one announce point and one capacity rule: a
// Remote is announced (OnListen) only once its run is whole — every
// experiment active, every journal open, the control plane attached — a
// refused run is never announced, and MaxLeases is the same capacity for
// a Tuner and a Manager.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/remote"
)

// fleetRuns runs one Tuner or one Manager of two experiments on rem,
// journaled to dir when it is not empty, and lists the journal files an
// active run keeps there.
var fleetRuns = []struct {
	name     string
	journals []string
	run      func(ctx context.Context, dir string, workers int, rem Remote) error
}{
	{"Tuner", []string{tunerJournalName}, func(ctx context.Context, dir string, workers int, rem Remote) error {
		opts := []Option{WithWorkers(workers), WithMaxJobs(50), WithBackend(rem)}
		if dir != "" {
			opts = append(opts, WithStateDir(dir))
		}
		_, err := New(testSpace(), nil, RandomSearch{MaxResource: 1}, opts...).Run(ctx)
		return err
	}},
	{"Manager", []string{journalFileName("a/one"), journalFileName("b/two")}, func(ctx context.Context, dir string, workers int, rem Remote) error {
		opts := []ManagerOption{WithManagerWorkers(workers), WithManagerRemote(rem)}
		if dir != "" {
			opts = append(opts, WithManagerStateDir(dir))
		}
		m := NewManager(opts...)
		for _, name := range []string{"a/one", "b/two"} {
			if err := m.Add(Experiment{Name: name, Space: testSpace(), Algorithm: RandomSearch{MaxResource: 1}, MaxJobs: 50}); err != nil {
				return err
			}
		}
		_, err := m.Run(ctx)
		return err
	}},
}

// TestOnListenSeesWholeRun: by the time a fleet run is announced, every
// active experiment's journal is open. The callback stats them
// synchronously — it must not wait on an admin answer, which the engine
// gives only once it runs — then cancels the run, which need not run a
// job.
func TestOnListenSeesWholeRun(t *testing.T) {
	for _, c := range fleetRuns {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			announced := 0
			rem := Remote{OnListen: func(string) {
				announced++
				for _, f := range c.journals {
					if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
						t.Errorf("announced before its journal was open: %v", err)
					}
				}
				cancel()
			}}
			_ = c.run(ctx, dir, 2, rem) // cancelled before its first job
			if announced != 1 {
				t.Fatalf("announced %d times, want once", announced)
			}
		})
	}
}

// TestDormantManagerAbortedFromOnListen: an abort posted from the
// announce reaches the run, so a Manager whose experiments are all
// dormant ends aborted rather than parking for good. The callback holds
// the announce a moment, for the abort to land before the run starts,
// but no longer: the answer comes only once the engine runs.
func TestDormantManagerAbortedFromOnListen(t *testing.T) {
	const token = "mgr-admin"
	aborted := make(chan error, 1)
	m := managerForResume(t.TempDir(), 50, WithManagerRemote(Remote{AdminToken: token, OnListen: func(url string) {
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			status, body, err := postAdmin(url, token, "abort", `{}`)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("abort: status %d, body %v", status, body)
			}
			aborted <- err
		}()
		select {
		case <-answered:
		case <-time.After(10 * time.Millisecond):
		}
	}}))
	m.dormant = true
	done := make(chan error, 1)
	var res map[string]*Result
	go func() {
		var err error
		res, err = m.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("manager run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a dormant manager aborted from OnListen is still running after 10s")
	}
	select {
	case err := <-aborted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the abort posted from OnListen was never answered")
	}
	if len(res) != 0 {
		t.Fatalf("an aborted dormant manager returned results %v", res)
	}
}

// TestMaxLeasesIsTheRunCapacity: MaxLeases is both the lease cap and the
// engine's in-flight budget, for a Tuner and a Manager alike — 0 means
// the worker count — and a negative value is refused before the server
// binds (an unbindable Listen address would fail the run otherwise).
func TestMaxLeasesIsTheRunCapacity(t *testing.T) {
	const workers, token = 8, "cap-admin"
	for _, c := range fleetRuns {
		for _, maxLeases := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/MaxLeases=%d", c.name, maxLeases), func(t *testing.T) {
				want := workers
				if maxLeases > 0 {
					want = maxLeases
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				type answer struct {
					st  remote.AdminStatus
					err error
				}
				status := make(chan answer, 1)
				rem := Remote{AdminToken: token, MaxLeases: maxLeases, OnListen: func(url string) {
					go func() {
						defer cancel()
						st, err := getStatus(url, token)
						status <- answer{st, err}
					}()
				}}
				_ = c.run(ctx, "", workers, rem) // cancelled once status answers
				var got answer
				select {
				case got = <-status: // sent before the cancel that ended the run
				default:
					t.Fatal("the run ended unannounced")
				}
				if got.err != nil {
					t.Fatal(got.err)
				}
				if got.st.Workers != want || got.st.LeaseCap != want {
					t.Fatalf("admin status reads workers %d, leaseCap %d; want both %d", got.st.Workers, got.st.LeaseCap, want)
				}
			})
		}
		t.Run(c.name+"/negative", func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			announced := false
			rem := Remote{Listen: "127.0.0.1:99999", MaxLeases: -1, OnListen: func(string) { announced = true }}
			err := c.run(ctx, "", workers, rem)
			if err == nil || !strings.Contains(err.Error(), "MaxLeases") {
				t.Fatalf("MaxLeases -1: err = %v, want its refusal", err)
			}
			if announced {
				t.Fatal("a refused run announced its lease server")
			}
		})
	}
}
