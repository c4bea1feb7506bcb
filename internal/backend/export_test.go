package backend

import (
	"fmt"
	"reflect"
)

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
		{"trials", a.Trials, b.Trials},
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
