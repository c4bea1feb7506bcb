package asha

// Federated failover resume parity: a tuner shard (this test binary
// re-exec'd with ASHA_TEST_SHARD=1) runs a journaled fleet-mode
// experiment, is SIGKILLed mid-run, and a second node resumes it from
// the shared journal — the survivor's decision stream must be
// bit-identical to an uninterrupted run. This is the end-to-end
// exactly-once argument for shard failover: the journal is written
// ahead of every issue/report, replay reseeds the scheduler, and the
// lease-generation seed keeps stale lease IDs from colliding.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/remote"
	"repro/internal/state"
)

const (
	parityExperiment = "fed/parity"
	parityJobs       = 40
	parityKillAfter  = 12
	parityToken      = "fed-worker"
	parityAdmin      = "fed-admin"
)

func paritySpace() *Space {
	return NewSpace(Uniform("lr", 1e-4, 1e-1), Uniform("momentum", 0, 1))
}

func parityAlgorithm() Algorithm {
	return ASHA{Eta: 3, MinResource: 1, MaxResource: 27}
}

// parityObjective is deterministic and memoryless: the loss at `to`
// depends only on the configuration, so the killed shard's relaunched
// jobs and the uninterrupted reference report bit-identical values no
// matter which process trains them. delay slows training so the parent
// can observe and kill the shard mid-run.
func parityObjective(delay time.Duration) Objective {
	return func(_ context.Context, cfg Config, _, to float64, _ interface{}) (float64, interface{}, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		floor := 0.1*math.Abs(math.Log10(cfg["lr"])+2) + 0.2*math.Abs(cfg["momentum"]-0.3)
		loss := floor + (2-floor)*math.Exp(-0.05*to)
		return loss, loss, nil
	}
}

func parityExperimentSpec(obj Objective) Experiment {
	return Experiment{
		Name:      parityExperiment,
		Space:     paritySpace(),
		Objective: obj, // nil in fleet mode: the objective runs worker-side
		Algorithm: parityAlgorithm(),
		Seed:      11,
		MaxJobs:   parityJobs,
	}
}

// runTestShard is the re-exec'd shard process: a fleet-mode Manager
// journaling to ASHA_TEST_SHARD_STATE, serving leases to whoever
// connects. It prints "SHARD_URL <url>" so the parent can aim a worker
// at it, then runs until killed.
func runTestShard() {
	m := NewManager(
		WithManagerWorkers(1),
		WithManagerStateDir(os.Getenv("ASHA_TEST_SHARD_STATE")),
		WithManagerRemote(Remote{
			Token:      parityToken,
			AdminToken: parityAdmin,
			LeaseTTL:   60 * time.Second,
			MaxLeases:  1,
			OnListen:   func(url string) { fmt.Println("SHARD_URL", url) },
		}),
	)
	if err := m.Add(parityExperimentSpec(nil)); err != nil {
		fmt.Fprintln(os.Stderr, "shard:", err)
		os.Exit(1)
	}
	if _, err := m.Resume(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "shard:", err)
		os.Exit(1)
	}
}

// digestJournal folds the experiment's full decision stream — every
// issue (trial, rung, target, kind, exact config bits) and every report
// (trial, rung, outcome, exact loss bits, resource) — into one FNV-1a
// digest. Wall-clock fields and snapshots are excluded: they vary
// across runs without changing any decision.
func digestJournal(t *testing.T, dir string) uint64 {
	t.Helper()
	path := filepath.Join(dir, journalFileName(parityExperiment))
	rec, journal, err := state.RecoverFile(path)
	if err != nil {
		t.Fatalf("recover %s: %v", path, err)
	}
	_ = journal.Close()
	if rec.Truncated {
		t.Logf("journal %s: torn tail discarded at offset %d", path, rec.CleanOffset)
	}
	h := fnv.New64a()
	for _, r := range rec.Records {
		switch {
		case r.Issue != nil:
			is := r.Issue
			fmt.Fprintf(h, "I %d %d %x %d %s", is.Trial, is.Rung, math.Float64bits(is.Target), is.Inherit, is.Kind)
			names := make([]string, 0, len(is.Config))
			for name := range is.Config {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(h, " %s=%x", name, math.Float64bits(is.Config[name]))
			}
			fmt.Fprint(h, "|")
		case r.Report != nil:
			rep := r.Report
			fmt.Fprintf(h, "R %d %d %v %x %x %x|", rep.Trial, rep.Rung, rep.Failed,
				math.Float64bits(rep.Loss), math.Float64bits(rep.TrueLoss), math.Float64bits(rep.Resource))
		}
	}
	return h.Sum64()
}

// pollShardCompleted scrapes the shard's admin status until the
// experiment's completion count reaches want (returning the observed
// count) or the deadline passes.
func pollShardCompleted(t *testing.T, url string, want int) int {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequest(http.MethodGet, url+"/v1/admin/status", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+parityAdmin)
		resp, err := client.Do(req)
		if err == nil {
			var st remote.AdminStatus
			decodeErr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if decodeErr == nil {
				for _, e := range st.Experiments {
					if e.Experiment == parityExperiment && e.Completed >= want {
						return e.Completed
					}
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("shard never reached %d completions", want)
	return 0
}

// TestFederatedFailoverParity is the failover golden test: SIGKILL a
// shard mid-run, resume its experiment from the shared journal on a
// second node, and require the combined decision stream to be
// bit-identical (same FNV digest) to an uninterrupted run.
func TestFederatedFailoverParity(t *testing.T) {
	// Uninterrupted reference: same spec, journaled, run to completion
	// on a single node with the objective in-process. One worker makes
	// the issue/report interleaving serial, hence deterministic.
	refDir := t.TempDir()
	refMgr := NewManager(WithManagerWorkers(1), WithManagerStateDir(refDir))
	if err := refMgr.Add(parityExperimentSpec(parityObjective(0))); err != nil {
		t.Fatal(err)
	}
	refRes, err := refMgr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	refDigest := digestJournal(t, refDir)

	// Doomed shard: this test binary re-exec'd as a fleet-mode tuner
	// journaling into a dir that survives it (the "shared state" a real
	// deployment puts on durable storage).
	stateDir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	shard := exec.Command(exe)
	shard.Env = append(os.Environ(), "ASHA_TEST_SHARD=1", "ASHA_TEST_SHARD_STATE="+stateDir)
	shard.Stderr = os.Stderr
	stdout, err := shard.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = shard.Process.Kill(); _, _ = shard.Process.Wait() }()

	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if u, ok := strings.CutPrefix(sc.Text(), "SHARD_URL "); ok {
				urlCh <- u
				return
			}
		}
		close(urlCh)
	}()
	var shardURL string
	select {
	case u, ok := <-urlCh:
		if !ok {
			t.Fatal("shard exited before advertising its URL")
		}
		shardURL = u
	case <-time.After(20 * time.Second):
		t.Fatal("shard never advertised its URL")
	}

	// One worker in this process trains the shard's jobs, slowly enough
	// that the kill lands mid-run.
	workerCtx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	go func() {
		_ = ServeRemoteWorker(workerCtx, RemoteWorker{
			Server: shardURL, Token: parityToken, Slots: 1,
			Objectives: map[string]Objective{parityExperiment: parityObjective(8 * time.Millisecond)},
		})
	}()

	// SIGKILL — no drain, no journal close, no goodbye — once the run
	// is demonstrably in progress.
	completed := pollShardCompleted(t, shardURL, parityKillAfter)
	if err := shard.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = shard.Process.Wait()
	stopWorker()
	if completed >= parityJobs {
		t.Fatalf("shard finished all %d jobs before the kill; raise the worker delay", parityJobs)
	}
	t.Logf("killed shard at %d/%d completions", completed, parityJobs)

	// Failover: a second node adopts the experiment by resuming from
	// the dead shard's journal (exactly what mgrRun.Adopt drives on
	// a survivor shard) and runs it to completion.
	survivor := NewManager(WithManagerWorkers(1), WithManagerStateDir(stateDir))
	if err := survivor.Add(parityExperimentSpec(parityObjective(0))); err != nil {
		t.Fatal(err)
	}
	res, err := survivor.Resume(context.Background())
	if err != nil {
		t.Fatalf("failover resume: %v", err)
	}

	if got, want := res[parityExperiment].CompletedJobs, refRes[parityExperiment].CompletedJobs; got != want {
		t.Errorf("failed-over run completed %d jobs, uninterrupted %d", got, want)
	}
	if got, want := math.Float64bits(res[parityExperiment].BestLoss), math.Float64bits(refRes[parityExperiment].BestLoss); got != want {
		t.Errorf("failed-over best loss bits %x, uninterrupted %x", got, want)
	}
	if got := digestJournal(t, stateDir); got != refDigest {
		t.Errorf("decision-stream digest diverged after failover: got %016x, uninterrupted %016x", got, refDigest)
	}
}
