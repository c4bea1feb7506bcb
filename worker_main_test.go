package asha

// Subprocess worker re-exec harness: the Subprocess backend needs a
// worker executable, so the tests relaunch this test binary with
// ASHA_TEST_WORKER=1 (or =parity, to serve remoteParityObjective), which
// short-circuits TestMain into ServeWorker before any tests run — the
// standard Go pattern for subprocess tests.

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if mode := os.Getenv("ASHA_TEST_WORKER"); mode != "" {
		obj := Objective(workerObjective)
		if mode == "parity" {
			obj = remoteParityObjective // the backend-parity tests' objective
		}
		if err := ServeWorker(context.Background(), obj); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if os.Getenv("ASHA_TEST_SHARD") == "1" {
		// Federated-failover harness: this test binary doubles as a
		// tuner shard process (see federation_failover_test.go).
		runTestShard()
		os.Exit(0)
	}
	// Every worker and shard process a test spawns inherits this: a
	// race-detector build otherwise sleeps a second at exit.
	os.Setenv("GORACE", "atexit_sleep_ms=0")
	os.Exit(m.Run())
}

// workerObjective is the deterministic objective the re-exec'd worker
// process serves. It verifies the checkpoint contract — the state the
// parent hands back must match the resume point — and fails the run
// loudly otherwise, turning state-threading bugs into test failures.
func workerObjective(_ context.Context, cfg Config, from, to float64, state interface{}) (float64, interface{}, error) {
	if ms, _ := strconv.Atoi(os.Getenv("ASHA_TEST_WORKER_SLEEP_MS")); ms > 0 {
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}
	if state == nil {
		if from != 0 {
			return 0, nil, fmt.Errorf("trial resumed at %v with no checkpoint state", from)
		}
	} else {
		chk, ok := state.(map[string]interface{})
		if !ok {
			return 0, nil, fmt.Errorf("checkpoint state decoded to %T, want object", state)
		}
		if res, _ := chk["resource"].(float64); res != from {
			return 0, nil, fmt.Errorf("checkpoint resource %v does not match resume point %v", res, from)
		}
	}
	sum := 0.0
	for _, v := range cfg {
		sum += v
	}
	floor := 0.1 + 0.4*math.Abs(math.Sin(sum))
	loss := floor + math.Exp(-to/8)
	return loss, map[string]interface{}{"resource": to, "loss": loss}, nil
}

// workerBackend returns a Subprocess backend whose worker is this test
// binary in ASHA_TEST_WORKER mode.
func workerBackend(t *testing.T) Backend {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("cannot locate test binary: %v", err)
	}
	return Subprocess{Command: exe, Env: []string{"ASHA_TEST_WORKER=1"}}
}
