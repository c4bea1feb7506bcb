package backend

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// changedSince takes a snapshot and renders what it streamed, in stream
// order.
func changedSince(tr *Trials) []string {
	var got []string
	tr.SnapshotTrials(func(trial int, resource float64, state json.RawMessage) {
		got = append(got, fmt.Sprintf("%d:%v%s", trial, resource, state))
	})
	return got
}

// The table's contract, one step at a time: each step names the trials
// the next snapshot must stream — what changed since the one before, each
// once, in the order it first changed.
func TestTrialsStreamEachChangeOnce(t *testing.T) {
	var tr Trials
	resolve := func(id, inherit int, wantFrom float64, wantState string, wantInherited bool) func() {
		return func() {
			t.Helper()
			from, state, inherited := tr.Resolve(id, inherit)
			if from != wantFrom || string(state) != wantState || inherited != wantInherited {
				t.Errorf("Resolve(%d, %d) = %v, %q, %v; want %v, %q, %v", id, inherit, from, state, inherited, wantFrom, wantState, wantInherited)
			}
		}
	}
	commit := func(id int, resource float64, state string) func() {
		return func() { tr.Commit(id, resource, json.RawMessage(state)) }
	}
	for _, step := range []struct {
		name string
		do   []func()
		want []string
	}{
		{"restored trials are in the journal already",
			[]func(){func() { tr.RestoreTrial(0, 4, json.RawMessage(`"r0"`)) }, func() { tr.RestoreTrial(5, 2, nil) }}, nil},
		{"a launch of a restored trial resumes from what was restored, and changes nothing",
			[]func(){resolve(0, -1, 4, `"r0"`, false), resolve(5, -1, 2, ``, false)}, nil},
		{"a launch creates its trial at zero, and changes nothing",
			[]func(){resolve(1, -1, 0, ``, false), resolve(2, -1, 0, ``, false)}, nil},
		{"a completion commits",
			[]func(){commit(1, 1, `"a"`)}, []string{`1:1"a"`}},
		{"nothing changed since",
			nil, nil},
		{"a failed, crashed or expired job commits nothing: its retry resumes where it did",
			[]func(){resolve(1, -1, 1, `"a"`, false), resolve(1, -1, 1, `"a"`, false)}, nil},
		{"two commits between snapshots stream once, the later pair, in first-change order",
			[]func(){commit(2, 1, `"b"`), commit(1, 3, `"c"`), commit(2, 3, `"d"`)}, []string{`2:3"d"`, `1:3"c"`}},
		{"an heir takes the donor's pair: the heir changed, the donor did not",
			[]func(){resolve(3, 1, 3, `"c"`, true)}, []string{`3:3"c"`}},
		{"an heir that then fails keeps the inherited pair",
			[]func(){resolve(3, -1, 3, `"c"`, false)}, nil},
		{"a running trial can inherit again, and a commit after it counts once",
			[]func(){resolve(2, 3, 3, `"c"`, true), commit(2, 9, `"e"`)}, []string{`2:9"e"`}},
		{"a donor the table never saw gives nothing",
			[]func(){resolve(4, 400, 0, ``, false), resolve(4, 6, 0, ``, false)}, nil},
		{"Close commits an in-flight result of a trial like any other",
			[]func(){commit(4, 1, ``)}, []string{`4:1`}},
	} {
		for _, do := range step.do {
			do()
		}
		if got := changedSince(&tr); !reflect.DeepEqual(got, step.want) {
			t.Errorf("%s: snapshot streamed %q, want %q", step.name, got, step.want)
		}
	}

	var table []string
	recount := Stats{}
	tr.Each(func(trial int, resource float64, state json.RawMessage) {
		table = append(table, fmt.Sprintf("%d:%v%s", trial, resource, state))
		recount.Trials++
		recount.TotalResource += resource
	})
	if want := []string{`0:4"r0"`, `1:3"c"`, `2:9"e"`, `3:3"c"`, `4:1`, `5:2`}; !reflect.DeepEqual(table, want) {
		t.Errorf("the table holds %q, want %q", table, want)
	}
	if got := tr.Stats(); got != recount || got != (Stats{Trials: 6, TotalResource: 22}) {
		t.Errorf("Stats() = %+v, a recount %+v, want 6 trials holding 22", got, recount)
	}
}
