package backend

import (
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/state"
)

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = raceEnabled

// ResumeDiff names the first part in which two resume states differ, ""
// when they agree: what the engine continues a run from, the pace of the
// journal's checkpoints and the codec aside.
func ResumeDiff(a, b *ResumeState) string {
	for _, part := range []struct {
		name string
		a, b interface{}
	}{
		{"run", a.Run, b.Run},
		{"relaunch", a.Relaunch, b.Relaunch},
		{"trials", TrialSnaps(&a.Trials), TrialSnaps(&b.Trials)},
		{"time offset", a.TimeOffset, b.TimeOffset},
		{"issued pairs", a.issued, b.issued},
		{"rung completions", a.rungCompleted, b.rungCompleted},
	} {
		if !reflect.DeepEqual(part.a, part.b) {
			return fmt.Sprintf("%s: %+v vs %+v", part.name, part.a, part.b)
		}
	}
	return ""
}

// TrialSnaps lists a trial table entry by entry, through Each.
func TrialSnaps(t *Trials) []state.TrialSnap {
	var list []state.TrialSnap
	t.Each(func(trial int, resource float64, st json.RawMessage) {
		list = append(list, state.TrialSnap{Trial: trial, Resource: resource, State: st})
	})
	return list
}
