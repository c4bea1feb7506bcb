package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestRecordDropsDuplicates(t *testing.T) {
	r := &Run{}
	r.Record(1, 0.5, 0.5)
	r.Record(2, 0.5, 0.5)
	r.Record(3, 0.4, 0.39)
	if len(r.Series) != 2 {
		t.Fatalf("series length %d, want 2", len(r.Series))
	}
}

func TestTestLossAtStepFunction(t *testing.T) {
	r := &Run{}
	r.Record(10, 0.5, 0.5)
	r.Record(20, 0.3, 0.3)
	if !math.IsNaN(r.TestLossAt(5)) {
		t.Fatal("before the first point the incumbent is undefined")
	}
	if v := r.TestLossAt(10); v != 0.5 {
		t.Fatalf("at t=10: %v", v)
	}
	if v := r.TestLossAt(15); v != 0.5 {
		t.Fatalf("at t=15: %v", v)
	}
	if v := r.TestLossAt(25); v != 0.3 {
		t.Fatalf("at t=25: %v", v)
	}
}

func TestFinalTestLoss(t *testing.T) {
	r := &Run{}
	if !math.IsNaN(r.FinalTestLoss()) {
		t.Fatal("empty run should be NaN")
	}
	r.Record(1, 1, 0.9)
	r.Record(2, 0.5, 0.45)
	if r.FinalTestLoss() != 0.45 {
		t.Fatal("wrong final loss")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(100, 4)
	want := []float64{0, 25, 50, 75, 100}
	if len(g) != 5 {
		t.Fatalf("grid %v", g)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("grid %v, want %v", g, want)
		}
	}
}

func TestAggregateEnvelopes(t *testing.T) {
	mk := func(loss float64) *Run {
		r := &Run{}
		r.Record(0, loss, loss)
		return r
	}
	runs := []*Run{mk(0.1), mk(0.2), mk(0.3)}
	agg := Aggregate(runs, []float64{0, 10})
	if math.Abs(agg.Mean[0]-0.2) > 1e-12 {
		t.Fatalf("mean %v", agg.Mean[0])
	}
	if agg.Min[0] != 0.1 || agg.Max[0] != 0.3 {
		t.Fatalf("min/max %v %v", agg.Min[0], agg.Max[0])
	}
	if agg.Q25[0] >= agg.Q75[0] {
		t.Fatal("quartiles inverted")
	}
}

func TestAggregateHandlesLateStarters(t *testing.T) {
	early := &Run{}
	early.Record(0, 1, 1)
	late := &Run{}
	late.Record(50, 0.5, 0.5)
	agg := Aggregate([]*Run{early, late}, []float64{0, 100})
	// At t=0 only one run has an incumbent.
	if agg.Mean[0] != 1 {
		t.Fatalf("t=0 mean %v, want 1 (only the early run counts)", agg.Mean[0])
	}
	if math.Abs(agg.Mean[1]-0.75) > 1e-12 {
		t.Fatalf("t=100 mean %v, want 0.75", agg.Mean[1])
	}
}

func TestAggregateAllNaNBeforeAnyPoint(t *testing.T) {
	r := &Run{}
	r.Record(50, 0.5, 0.5)
	agg := Aggregate([]*Run{r}, []float64{0, 100})
	if !math.IsNaN(agg.Mean[0]) {
		t.Fatal("grid point before any incumbent should be NaN")
	}
}

func TestWriteTable(t *testing.T) {
	r := &Run{}
	r.Record(0, 0.5, 0.5)
	agg := Aggregate([]*Run{r}, []float64{0, 10})
	var b strings.Builder
	err := WriteTable(&b, "minutes", []string{"ASHA"}, map[string]*AggSeries{"ASHA": agg})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "ASHA") || !strings.Contains(out, "minutes") {
		t.Fatalf("table missing headers:\n%s", out)
	}
	if !strings.Contains(out, "0.5000") {
		t.Fatalf("table missing values:\n%s", out)
	}
}
