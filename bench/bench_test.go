package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestKernelIsFixedAllocationFreeWork(t *testing.T) {
	if kernelScale != 1 {
		t.Fatalf("kernel iterations are divided by %d by default, want 1", kernelScale)
	}
	defer func() { kernelScale = 1 }()
	kernelScale = 100
	if allocs := testing.AllocsPerRun(10, func() { kernelPass() }); allocs != 0 {
		t.Fatalf("kernel pass allocates %v times", allocs)
	}
	// Same buffer, same iteration counts: the same result, and one that
	// depends on every iteration, so the loops cannot be optimised away.
	result := func() float64 {
		for i := range kernelBuf {
			kernelBuf[i] = 0
		}
		kernelSink = 0
		kernelPass()
		return kernelSink
	}
	a, b := result(), result()
	if a != b || a == 0 {
		t.Fatalf("two passes over a zeroed buffer summed to %v and %v", a, b)
	}
	kernelScale = 200
	if c := result(); c == a {
		t.Fatalf("half the iterations gave the same result %v", c)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
	v := []float64{10, 20, 30, 40, 50}
	if q0, q1, q99 := quantile(v, 0), quantile(v, 1), quantile(v, 0.99); q0 != 10 || q1 != 50 || math.Abs(q99-49.6) > 1e-9 {
		t.Errorf("quantiles 0, 1, 0.99 = %v, %v, %v", q0, q1, q99)
	}
}

func TestReferenceSeconds(t *testing.T) {
	ref := time.Duration(RefPassS * float64(time.Second))
	// On the reference machine a second is a second.
	if got := refSeconds(time.Second, ref, ref); math.Abs(got-1) > 1e-12 {
		t.Errorf("reference machine: %v", got)
	}
	// A machine running the kernel at half speed did half the work.
	if got := refSeconds(time.Second, 2*ref, 2*ref); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("half-speed machine: %v", got)
	}
	// The passes before and after are averaged.
	if got := refSeconds(time.Second, ref, 3*ref); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("drifting machine: %v", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{name: spanDrive, parent: -1, start: 0, end: 100},
		{name: spanNext, parent: 0, start: 10, end: 30},
		{name: spanAwait, parent: 0, start: 40, end: 90},
		{name: spanWrite, parent: 2, start: 50, end: 60}, // a grandchild reduces only its parent
	}
	r.leaf(spanObjective, 7, 0, 80)
	got := foldSpans(r.take())
	want := map[spanName]layerTime{
		spanDrive:     {1, 100, 30},
		spanNext:      {1, 20, 20},
		spanAwait:     {1, 50, 40},
		spanWrite:     {1, 10, 10},
		spanObjective: {1, 80, 80},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", spanLabels[name], got[name], w)
		}
	}
	if len(r.take()) != 0 {
		t.Error("take did not empty the recorder")
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	r.begin(spanDrive, -1)
	r.begin(spanNext, -1)
	r.end()
	r.begin(spanReport, 42)
	r.end()
	r.end()
	s := r.take()
	if len(s) != 3 || s[0].parent != -1 || s[1].parent != 0 || s[2].parent != 0 || s[2].job != 42 {
		t.Fatalf("spans %+v", s)
	}
	if s[0].start > s[1].start || s[1].end > s[2].start || s[2].end > s[0].end {
		t.Fatalf("span times do not nest: %+v", s)
	}
}

// Two slots, ten seconds of wall time, objectives covering 5 s and 3 s:
// the workers were busy 8 of 20 slot-seconds.
func TestWorkerUtilFromSpans(t *testing.T) {
	sec := int64(time.Second)
	layers := foldSpans([]span{
		{name: spanObjective, parent: -1, start: 0, end: 5 * sec},
		{name: spanObjective, parent: -1, start: 2 * sec, end: 5 * sec},
	})
	if got := layers[spanObjective].total.Seconds() / (2 * 10); got != 0.4 {
		t.Fatalf("worker_util = %v, want 0.4", got)
	}
}

func TestPacedLags(t *testing.T) {
	ms := int64(time.Millisecond)
	var spans []span
	slots := pacedWorkers * pacedSlots
	// The initial fill starts at 0; every job runs 2 ms, its callback
	// comes 1 ms after it returns, and its slot's next job starts 3 ms
	// after the callback. Callbacks are engine spans and come first.
	for i := 0; i < slots; i++ {
		spans = append(spans, span{name: spanProgress, job: int64(i), start: 3 * ms, end: 3 * ms})
	}
	for i := 0; i < 2*slots; i++ {
		start := int64(i/slots) * 6 * ms
		spans = append(spans, span{name: spanObjective, job: int64(i), start: start, end: start + 2*ms})
	}
	dispatch, reportLag := pacedLags(spans)
	if len(reportLag) != slots || len(dispatch) != slots {
		t.Fatalf("%d report lags and %d dispatch latencies, want %d each", len(reportLag), len(dispatch), slots)
	}
	if lag, disp := median(reportLag), median(dispatch); math.Abs(lag-0.001) > 1e-12 || math.Abs(disp-0.003) > 1e-12 {
		t.Fatalf("report lag %v s, dispatch %v s, want 0.001 and 0.003", lag, disp)
	}
}

func TestTraceFlagTakesSwitchOrValue(t *testing.T) {
	got := strings.Join(boolTraceArg([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace"}), " ")
	if want := "--workload x -trace=1 --seed 3 -trace"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// declared reads ../BENCHMARK.json.
func declared(t *testing.T) (workloadNames, endToEnd, perLayerNames map[string]bool) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	workloadNames, endToEnd, perLayerNames = map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, w := range file.Workloads {
		workloadNames[w.Name] = true
	}
	for _, m := range file.EndToEnd {
		endToEnd[m.Name+" "+m.Unit] = true
	}
	for _, m := range file.PerLayer {
		perLayerNames[m.Name+" "+m.Unit] = true
	}
	return
}

// TestSmokeEveryWorkload runs every workload and its traced twin at
// smoke size and checks that the names printed are exactly the ones
// BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	workloadNames, endToEnd, perLayerNames := declared(t)
	if len(workloadNames) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, bench has %d", len(workloadNames), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range workloads {
		if !workloadNames[w.name] || !name.MatchString(w.name) {
			t.Errorf("workload %q is not declared in BENCHMARK.json", w.name)
		}
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			if code := run([]string{"--workload", w.name, "--seed", "5", "--seconds", "0", "--trace", trace, "-smoke"}, &out); code != 0 {
				t.Fatalf("%s trace %s: exit code %d\n%s", w.name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var result struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v\n%s", w.name, trace, err, out.String())
			}
			if !result.Correct || result.Attempted < 1 || result.Failed != 0 {
				t.Errorf("%s trace %s: %+v", w.name, trace, result)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayerNames
			}
			if len(result.Metrics) != len(want) {
				t.Errorf("%s trace %s: printed %d metrics, BENCHMARK.json declares %d", w.name, trace, len(result.Metrics), len(want))
			}
			for n, m := range result.Metrics {
				if !want[n+" "+m.Unit] || !name.MatchString(n) {
					t.Errorf("%s trace %s: metric %q (%s) is not declared in BENCHMARK.json", w.name, trace, n, m.Unit)
				}
				if trace == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, n, m.Value)
				}
			}
		}
	}
	if _, err := os.Stat("out/trace-sim-paper.json"); err != nil {
		t.Errorf("the traced run left no trace file: %v", err)
	}
}
