package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/state"
)

// synthJournal builds a journal image resembling an ASHA run: nTrials
// bottom-rung samples at resource r with a quarter promoted through an
// eta=4 ladder up to R. Losses improve with resource and vary by trial.
func synthJournal(t *testing.T, nTrials int) []byte {
	t.Helper()
	var buf bytes.Buffer
	params := []string{"lr", "width"}
	journal, err := state.NewWriter(&buf, state.Meta{
		Experiment: "synth",
		Algo:       "asha(eta=4,r=1,R=64)",
		Seed:       7,
		Params:     params,
	})
	if err != nil {
		t.Fatal(err)
	}
	write := func(rec state.Record) {
		rec.V = state.Version
		if err := journal.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	rungs := []float64{1, 4, 16, 64}
	now := 0.0
	for id := 0; id < nTrials; id++ {
		lr := 1e-4 * float64(1+id%1000) // spans decades -> log-uniform
		width := 64 + float64(id%8)*128
		quality := float64(id%97) / 97.0 // deterministic spread
		for rung, target := range rungs {
			if rung > 0 && id%pow4(rung) != 0 {
				break // not promoted this far
			}
			write(state.Record{Issue: &state.Issue{
				Trial: id, Rung: rung, Target: target, Inherit: -1,
				Kind:   state.KindSample,
				Names:  params,
				Config: map[string]float64{"lr": lr, "width": width},
			}})
			now += 0.01
			// Loss decays from 7.0 toward a quality-dependent asymptote.
			asym := 4.0 + 2.0*quality
			loss := asym + (7.0-asym)*decay(target/64.0)
			write(state.Record{Report: &state.Report{Trial: id, Rung: rung, Loss: loss, TrueLoss: loss, Resource: target, Time: now}})
		}
	}
	return buf.Bytes()
}

func pow4(k int) int {
	n := 1
	for i := 0; i < k; i++ {
		n *= 4
	}
	return n
}

// decay is exp(-6x) without importing math for a helper this small.
func decay(x float64) float64 {
	e := 1.0
	term := 1.0
	for i := 1; i < 20; i++ {
		term *= -6 * x / float64(i)
		e += term
	}
	if e < 0 {
		return 0
	}
	return e
}

func TestAnalyzeInfersWorkload(t *testing.T) {
	rec, err := state.Recover(synthJournal(t, 512))
	if err != nil {
		t.Fatal(err)
	}
	m, err := analyze(rec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Experiment != "synth" {
		t.Fatalf("experiment %q", m.Experiment)
	}
	if m.Eta != 4 {
		t.Fatalf("inferred eta %d, want 4", m.Eta)
	}
	if m.MinR != 1 || m.MaxR != 64 {
		t.Fatalf("inferred ladder r=%v R=%v, want 1..64", m.MinR, m.MaxR)
	}
	if len(m.Rungs) != 4 {
		t.Fatalf("inferred %d rungs, want 4", len(m.Rungs))
	}
	wantJobs := 0
	for id := 0; id < 512; id++ {
		for rung := range []int{0, 1, 2, 3} {
			if rung > 0 && id%pow4(rung) != 0 {
				break
			}
			wantJobs++
		}
	}
	if m.Jobs != wantJobs {
		t.Fatalf("inferred %d jobs, want %d", m.Jobs, wantJobs)
	}
	// lr spans 1e-4..1e-1 -> log-uniform; width spans 64..960 -> uniform.
	lr, ok := m.Space.Param("lr")
	if !ok || lr.Type.String() != "continuous log" {
		t.Fatalf("lr inferred as %+v, want log-uniform", lr)
	}
	if m.Cal.BestLoss >= m.Cal.WorstLoss || m.Cal.WorstLoss >= m.Cal.InitialLoss {
		t.Fatalf("loss calibration not ordered: %+v", m.Cal)
	}
	if m.Cal.BestLoss < 3.5 || m.Cal.BestLoss > 4.5 {
		t.Fatalf("best loss %v, want near 4.0", m.Cal.BestLoss)
	}
}

func TestReplayAcrossFleetSizes(t *testing.T) {
	rec, err := state.Recover(synthJournal(t, 512))
	if err != nil {
		t.Fatal(err)
	}
	m, err := analyze(rec)
	if err != nil {
		t.Fatal(err)
	}
	fleets := []int{4, 16, 64}
	var rows []row
	for _, w := range fleets {
		sc := scenario{Workers: w}
		run := m.replay(sc, 1)
		if run.CompletedJobs+run.FailedJobs == 0 {
			t.Fatalf("fleet %d: replay ran no jobs", w)
		}
		if run.EndTime <= 0 {
			t.Fatalf("fleet %d: no wall-clock", w)
		}
		rows = append(rows, row{scenario: sc, WallClock: run.EndTime,
			BestLoss: run.FinalTestLoss(), ConfigsAtR: run.ConfigsToR})
	}
	// The same job budget on a larger fleet must not take longer.
	if !(rows[2].WallClock < rows[0].WallClock) {
		t.Fatalf("no speedup: %d workers took %v, %d workers took %v",
			fleets[0], rows[0].WallClock, fleets[2], rows[2].WallClock)
	}
	out := report(m, rows)
	for _, want := range []string{"wall-clock", "workers", "speedup", "efficiency", "what-if replay"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// The figure must render with one series.
	if !strings.Contains(out, "wall-clock vs workers") {
		t.Fatalf("report missing figure:\n%s", out)
	}
}

func TestAnalyzeRejectsEmptyJournal(t *testing.T) {
	var buf bytes.Buffer
	if _, err := state.NewWriter(&buf, state.Meta{Experiment: "x"}); err != nil {
		t.Fatal(err)
	}
	rec, err := state.Recover(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analyze(rec); err == nil {
		t.Fatal("analyze accepted a journal with no jobs")
	}
}
