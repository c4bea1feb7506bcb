package exec

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// TestSlotConfigNoStaleKeys: a slot's map holds exactly the current
// job's table — overwritten in place while the names stay the same by
// content, whatever slice carries them, cleared when they change.
func TestSlotConfigNoStaleKeys(t *testing.T) {
	var s Slot
	steps := []struct {
		names []string
		vec   []float64
		want  map[string]float64
	}{
		{[]string{"lr", "momentum"}, []float64{1, 2}, map[string]float64{"lr": 1, "momentum": 2}},
		{[]string{"lr", "momentum"}, []float64{3, 4}, map[string]float64{"lr": 3, "momentum": 4}},
		{[]string{"lr", "depth"}, []float64{5, 6}, map[string]float64{"lr": 5, "depth": 6}},
		{[]string{"momentum", "lr"}, []float64{7, 8}, map[string]float64{"momentum": 7, "lr": 8}},
		{[]string{"lr"}, []float64{9}, map[string]float64{"lr": 9}},
		{nil, nil, map[string]float64{}},
		{[]string{"width", "dropout", "decay"}, []float64{1, 2, 3}, map[string]float64{"width": 1, "dropout": 2, "decay": 3}},
	}
	for i, st := range steps {
		if got := s.Config(st.names, st.vec); !reflect.DeepEqual(got, st.want) {
			t.Fatalf("step %d: slot holds %v, want %v", i, got, st.want)
		}
	}
	// The slot keeps its own copy of the names: a caller reusing its
	// slice for another table must not make the two look equal.
	names := []string{"a", "b"}
	s.Config(names, []float64{1, 2})
	names[1] = "c"
	if got, want := s.Config(names, []float64{3, 4}), (map[string]float64{"a": 3, "c": 4}); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the caller rewrote its names: slot holds %v, want %v", got, want)
	}
}

// TestSlotContextCarriesEachTrial: the slot's one context is re-parented
// and re-numbered per job, and still answers the parent's own values.
func TestSlotContextCarriesEachTrial(t *testing.T) {
	type key struct{}
	var s Slot
	first, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "outer"))
	ctx := s.Context(first, 7)
	if id, ok := TrialIDFromContext(ctx); !ok || id != 7 || ctx.Value(key{}) != "outer" {
		t.Fatalf("first job: trial %d (%v), parent value %v", id, ok, ctx.Value(key{}))
	}
	cancel()
	if ctx.Err() == nil {
		t.Fatal("cancelling the parent did not reach the slot's context")
	}
	ctx = s.Context(context.Background(), 8)
	if id, _ := TrialIDFromContext(ctx); id != 8 || ctx.Err() != nil || ctx.Value(key{}) != nil {
		t.Fatalf("second job: trial %d, err %v, stale parent value %v", id, ctx.Err(), ctx.Value(key{}))
	}
}

// TestRunJobCheckpointBuffer: a float checkpoint lands in the caller's
// buffer when it fits and in fresh bytes when it does not, either way
// exactly as encoding/json prints it; anything else goes through
// json.Marshal; and what was written decodes back to the value.
func TestRunJobCheckpointBuffer(t *testing.T) {
	var s Slot
	var buf [24]byte
	states := []struct {
		v      interface{}
		inline bool
	}{
		{0.125, true},
		{-1.2345678901234567e-300, true}, // 24 bytes: the longest exponent form fills the buffer
		{-1.2345678901234567e-6, false},  // 25 bytes: the longest plain form does not fit
		{1e21, true},
		{-0.0000001, true},
		{map[string]interface{}{"epoch": 4.0}, false},
		{"warm", false},
	}
	for _, st := range states {
		obj := func(_ context.Context, _ map[string]float64, _, _ float64, state interface{}) (float64, interface{}, error) {
			if state != nil && !reflect.DeepEqual(state, st.v) {
				t.Errorf("resumed from %#v, want %#v", state, st.v)
			}
			return 1, st.v, nil
		}
		resp := s.RunJob(context.Background(), obj, nil, BinRequest{ID: 1}, buf[:0])
		if resp.IsErr {
			t.Fatalf("%v: %s", st.v, resp.Err)
		}
		want, _ := json.Marshal(st.v)
		if string(resp.State) != string(want) {
			t.Fatalf("%v: checkpoint %s, encoding/json writes %s", st.v, resp.State, want)
		}
		if inline := &resp.State[0] == &buf[0]; inline != st.inline {
			t.Fatalf("%v (%d bytes): in the caller's buffer = %v, want %v", st.v, len(want), inline, st.inline)
		}
		state := append([]byte(nil), resp.State...)
		if resp := s.RunJob(context.Background(), obj, nil, BinRequest{ID: 2, State: state}, buf[:0]); resp.IsErr {
			t.Fatalf("%v: resuming: %s", st.v, resp.Err)
		}
	}
}

// TestRunJobRefusesNearNumbers: a checkpoint strconv parses but JSON
// refuses is answered with the error json.Unmarshal gives, never trained
// from.
func TestRunJobRefusesNearNumbers(t *testing.T) {
	var s Slot
	obj := func(_ context.Context, _ map[string]float64, _, _ float64, state interface{}) (float64, interface{}, error) {
		t.Errorf("objective resumed from %#v", state)
		return 1, nil, nil
	}
	for _, raw := range nearNumbers {
		var v interface{}
		want := fmt.Sprintf("exec: worker failed to decode state: %v", json.Unmarshal([]byte(raw), &v))
		if resp := s.RunJob(context.Background(), obj, nil, BinRequest{ID: 1, State: []byte(raw)}, nil); !resp.IsErr || resp.Err != want {
			t.Errorf("%s: %+v; want the error %s", raw, resp, want)
		}
	}
}
