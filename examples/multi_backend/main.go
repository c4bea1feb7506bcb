// Command multi_backend runs one unchanged ASHA configuration on two
// execution backends — real goroutine workers and the discrete-event
// cluster simulator — and shows that the pluggable Backend seam
// (asha.WithBackend) leaves the algorithm untouched: with one worker
// and a fixed seed the two runs make identical promotion decisions.
//
// The objective is a calibrated surrogate benchmark adapted with
// asha.BenchmarkObjective, so "real" training here is the same
// learning-curve model the simulator trains natively; swap in your own
// asha.Objective for actual workloads.
package main

import (
	"context"
	"fmt"
	"log"

	asha "repro"
)

func main() {
	bench, err := asha.NamedBenchmark("cuda-convnet")
	if err != nil {
		log.Fatal(err)
	}
	algo := asha.ASHA{
		Eta:         4,
		MinResource: bench.MaxResource() / 256,
		MaxResource: bench.MaxResource(),
	}

	run := func(name string, objective asha.Objective, be asha.Backend) *asha.Result {
		tuner := asha.New(bench.Space(), objective, algo,
			asha.WithBackend(be),
			asha.WithWorkers(1),
			asha.WithSeed(42),
			asha.WithMaxJobs(400),
		)
		res, err := tuner.Run(context.Background())
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-10s best loss %.6f  jobs %d  configs %d  resource %.0f\n",
			name, res.BestLoss, res.CompletedJobs, res.Trials, res.TotalResource)
		return res
	}

	fmt.Println("same ASHA config, two backends, seed 42, 1 worker:")
	gr := run("goroutine", asha.BenchmarkObjective(bench), asha.GoroutinePool{})
	sim := run("simulated", nil, asha.Simulation{Benchmark: bench})

	if gr.BestLoss != sim.BestLoss || gr.Trials != sim.Trials {
		log.Fatal("backends diverged — this would fail the parity test")
	}
	fmt.Println("\nidentical incumbents and trial counts: the backends agree.")

	// With many workers the simulator shines: 500 virtual workers and
	// straggler injection, milliseconds of wall clock.
	tuner := asha.New(bench.Space(), nil, algo,
		asha.WithBackend(asha.Simulation{Benchmark: bench, StragglerSD: 1.0, MaxSimTime: 1000}),
		asha.WithWorkers(500),
		asha.WithSeed(7),
	)
	res, err := tuner.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n500 simulated workers with stragglers: %d jobs, best loss %.4f (%v wall clock)\n",
		res.CompletedJobs, res.BestLoss, res.Elapsed.Round(1e6))
}
