package asha

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/state"
)

// resumeObjective is deterministic and memoryless: the loss at `to`
// depends only on the configuration and `to`, so a resumed trial rolled
// back to an older checkpoint reproduces bit-identical losses.
func resumeObjective(_ context.Context, cfg Config, _, to float64, _ interface{}) (float64, interface{}, error) {
	floor := 0.1*math.Abs(math.Log10(cfg["lr"])+2) + 0.2*math.Abs(cfg["momentum"]-0.3)
	loss := floor + (2-floor)*math.Exp(-0.03*to)
	return loss, loss, nil
}

func resumeTuner(dir string, jobs int, opts ...Option) *Tuner {
	base := []Option{
		WithWorkers(1),
		WithSeed(21),
		WithMaxJobs(jobs),
		WithStateDir(dir),
	}
	return New(testSpace(), resumeObjective, ASHA{Eta: 4, MinResource: 1, MaxResource: 256},
		append(base, opts...)...)
}

func TestTunerResumeMatchesUninterruptedRun(t *testing.T) {
	const jobs = 250
	// Uninterrupted reference run (journaled, same seed).
	ref, err := resumeTuner(t.TempDir(), jobs).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Killed run: cancel mid-flight, then resume with a fresh Tuner (a
	// new process would build exactly this).
	dir := t.TempDir()
	ctx, kill := context.WithCancel(context.Background())
	killed := resumeTuner(dir, jobs, WithProgress(func(p Progress) {
		if p.Completed == 90 {
			kill()
		}
	}))
	if _, err := killed.Run(ctx); err != nil {
		t.Fatalf("killed run: %v", err)
	}
	kill()
	res, err := resumeTuner(dir, jobs).Resume(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}

	if res.CompletedJobs != ref.CompletedJobs {
		t.Errorf("resumed run completed %d jobs, uninterrupted %d", res.CompletedJobs, ref.CompletedJobs)
	}
	if math.Float64bits(res.BestLoss) != math.Float64bits(ref.BestLoss) {
		t.Errorf("resumed best loss %x, uninterrupted %x", math.Float64bits(res.BestLoss), math.Float64bits(ref.BestLoss))
	}
	for name, v := range ref.BestConfig {
		if got := res.BestConfig[name]; math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("resumed best %s = %x, uninterrupted %x", name, math.Float64bits(got), math.Float64bits(v))
		}
	}
}

func TestTunerResumeWithoutJournalStartsFresh(t *testing.T) {
	res, err := resumeTuner(t.TempDir(), 80).Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedJobs != 80 {
		t.Fatalf("fresh Resume completed %d jobs, want 80", res.CompletedJobs)
	}
}

func TestTunerResumeOfFinishedRunReturnsFinalResult(t *testing.T) {
	dir := t.TempDir()
	ref, err := resumeTuner(dir, 60).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumeTuner(dir, 60).Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedJobs != ref.CompletedJobs ||
		math.Float64bits(res.BestLoss) != math.Float64bits(ref.BestLoss) {
		t.Fatalf("resume of a finished run: got %d jobs best %v, want %d jobs best %v",
			res.CompletedJobs, res.BestLoss, ref.CompletedJobs, ref.BestLoss)
	}
}

func TestTunerResumeRejectsMismatchedConfiguration(t *testing.T) {
	dir := t.TempDir()
	if _, err := resumeTuner(dir, 40).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Wrong seed.
	_, err := New(testSpace(), resumeObjective, ASHA{Eta: 4, MinResource: 1, MaxResource: 256},
		WithWorkers(1), WithSeed(99), WithMaxJobs(40), WithStateDir(dir)).Resume(context.Background())
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("mismatched seed accepted: %v", err)
	}
	// Wrong algorithm.
	_, err = New(testSpace(), resumeObjective, RandomSearch{MaxResource: 256},
		WithWorkers(1), WithSeed(21), WithMaxJobs(40), WithStateDir(dir)).Resume(context.Background())
	if err == nil || !strings.Contains(err.Error(), "algorithm") {
		t.Fatalf("mismatched algorithm accepted: %v", err)
	}
	// Wrong space.
	_, err = New(NewSpace(Uniform("other", 0, 1)), resumeObjective, ASHA{Eta: 4, MinResource: 1, MaxResource: 256},
		WithWorkers(1), WithSeed(21), WithMaxJobs(40), WithStateDir(dir)).Resume(context.Background())
	if err == nil {
		t.Fatal("mismatched space accepted")
	}
}

// A journal Resume refuses for what it holds — another run's identity,
// records the scheduler does not reproduce — is left byte for byte as it
// was, torn tail included: the tail is cut off only when the replay has
// accepted what is before it. (state's
// TestRecoverFileLeavesForeignFileAlone is the format-level twin.)
func TestRefusedResumeLeavesTornJournalAlone(t *testing.T) {
	dir := t.TempDir()
	if _, err := resumeTuner(dir, 40).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, tunerJournalName)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := image[:len(image)-5]
	rec, err := state.Recover(torn)
	if err != nil || !rec.Truncated {
		t.Fatalf("the cut journal: %v, %+v", err, rec)
	}
	// The same records under a meta that passes the identity check and a
	// first issue no scheduler of this seed makes — less the checkpoint,
	// which a resume would restore instead of replaying that issue.
	var edited bytes.Buffer
	j, err := state.NewWriter(&edited, rec.Meta)
	if err != nil {
		t.Fatal(err)
	}
	rec.Records[0].Issue.Target++
	for _, r := range rec.Records {
		if r.Checkpoint != nil {
			continue
		}
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	diverging := append(edited.Bytes(), torn[rec.CleanOffset:]...)
	for name, c := range map[string]struct {
		image []byte
		seed  uint64
		want  string
	}{
		"wrong seed": {torn, 99, "seed"},
		"diverging":  {diverging, 21, "divergence"},
	} {
		if err := os.WriteFile(path, c.image, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := resumeTuner(dir, 40, WithSeed(c.seed)).Resume(context.Background())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Resume returned %v, want a refusal naming the %s", name, err, c.want)
		}
		if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, c.image) {
			t.Errorf("%s: the refused journal changed: %d bytes, was %d (%v)", name, len(got), len(c.image), rerr)
		}
	}
	// Accepted, the same torn journal is cut at its recovery point and continued.
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := resumeTuner(dir, 40).Resume(context.Background()); err != nil || res.CompletedJobs != 40 {
		t.Fatalf("resume of the torn journal: %v, %+v", err, res)
	}
	if image, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if got, err := state.Recover(image); err != nil || got.Truncated || len(got.Records) <= len(rec.Records) {
		t.Errorf("the resumed journal: %v, %+v", err, got)
	}
}

// A resume under another η, or over a space with the same parameter
// names and other bounds, passes the journal's identity check — same
// seed, same algorithm type, same names — and is refused by the
// checkpoint it would restore from, naming what differs, with the
// journal left as it was.
func TestResumeRefusesAnotherConfiguration(t *testing.T) {
	dir := t.TempDir()
	if _, err := resumeTuner(dir, 300).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, tunerJournalName)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	narrower := NewSpace(LogUniform("lr", 1e-4, 1), Uniform("momentum", 0, 1), Choice("batch", 32, 64, 128), Int("layers", 1, 4))
	for name, c := range map[string]struct {
		space *Space
		algo  Algorithm
		want  string
	}{
		"eta":   {testSpace(), ASHA{Eta: 3, MinResource: 1, MaxResource: 256}, "taken with eta 4, this asha scheduler has eta 3"},
		"space": {narrower, ASHA{Eta: 4, MinResource: 1, MaxResource: 256}, "taken over another search space"},
	} {
		other := New(c.space, resumeObjective, c.algo, WithWorkers(1), WithSeed(21), WithMaxJobs(400), WithStateDir(dir))
		if _, err := other.Resume(context.Background()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Resume returned %v, want a refusal holding %q", name, err, c.want)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, image) {
			t.Fatalf("%s: the refused journal changed: %d bytes, was %d (%v)", name, len(got), len(image), err)
		}
	}
}

// A resume opens its journal to read it, and one refused — for the run's
// identity, for a record the scheduler does not reproduce, for a
// checkpoint of another configuration — closes it again, as an accepted
// one does.
func TestRefusedResumesCloseTheJournal(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts the open files in /proc/self/fd")
	}
	ctx := context.Background()
	ashaDir, hbDir := t.TempDir(), t.TempDir()
	// The entries of /proc/self/fd open on a journal: other tests' servers
	// may still be closing connections of their own.
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, fd := range fds {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil &&
				(strings.HasPrefix(target, ashaDir) || strings.HasPrefix(target, hbDir)) {
				n++
			}
		}
		return n
	}
	hyperband := func(eta int) *Tuner {
		return New(testSpace(), resumeObjective, Hyperband{Eta: eta, MinResource: 1, MaxResource: 27, MaxBracket: -1},
			WithWorkers(1), WithSeed(21), WithMaxJobs(100), WithStateDir(hbDir))
	}
	if _, err := resumeTuner(ashaDir, 100).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := hyperband(3).Run(ctx); err != nil {
		t.Fatal(err)
	}
	refusals := []struct {
		tuner *Tuner
		want  string
	}{
		{resumeTuner(ashaDir, 100, WithSeed(99)), "seed"},
		{hyperband(2), "divergence"},
		{New(testSpace(), resumeObjective, ASHA{Eta: 3, MinResource: 1, MaxResource: 256},
			WithWorkers(1), WithSeed(21), WithMaxJobs(100), WithStateDir(ashaDir)), "eta"},
	}
	before := openFiles()
	for i := 0; i < 200; i++ {
		c := refusals[i%len(refusals)]
		if _, err := c.tuner.Resume(ctx); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Resume returned %v, want a refusal naming the %s", err, c.want)
		}
	}
	if after := openFiles(); after != before {
		t.Fatalf("200 refused resumes leave %d files open, %d before", after, before)
	}
}

func TestTunerRunTruncatesPreviousJournal(t *testing.T) {
	dir := t.TempDir()
	if _, err := resumeTuner(dir, 40).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	first, err := os.Stat(filepath.Join(dir, "tuner.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumeTuner(dir, 10).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	second, err := os.Stat(filepath.Join(dir, "tuner.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if second.Size() >= first.Size() {
		t.Fatalf("Run did not start a fresh journal: %d -> %d bytes", first.Size(), second.Size())
	}
}

func managerForResume(dir string, jobs int, opts ...ManagerOption) *Manager {
	m := NewManager(append([]ManagerOption{
		WithManagerWorkers(1),
		WithManagerStateDir(dir),
	}, opts...)...)
	for i, name := range []string{"exp-a", "exp-b"} {
		if err := m.Add(Experiment{
			Name:      name,
			Space:     testSpace(),
			Objective: resumeObjective,
			Algorithm: ASHA{Eta: 4, MinResource: 1, MaxResource: 256},
			Seed:      uint64(31 + i),
			MaxJobs:   jobs,
		}); err != nil {
			panic(err)
		}
	}
	return m
}

func TestManagerResumeMatchesUninterruptedRun(t *testing.T) {
	const jobs = 120
	ref, err := managerForResume(t.TempDir(), jobs).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 2 {
		t.Fatalf("reference run finished %d experiments, want 2", len(ref))
	}

	dir := t.TempDir()
	ctx, kill := context.WithCancel(context.Background())
	total := 0
	killedMgr := managerForResume(dir, jobs, WithManagerProgress(func(p ExperimentProgress) {
		total++
		if total == 70 {
			kill()
		}
	}))
	if _, err := killedMgr.Run(ctx); err != nil {
		t.Fatalf("killed run: %v", err)
	}
	kill()
	res, err := managerForResume(dir, jobs).Resume(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	for name, want := range ref {
		got := res[name]
		if got == nil {
			t.Errorf("experiment %q missing after resume", name)
			continue
		}
		if got.CompletedJobs != want.CompletedJobs {
			t.Errorf("%s: resumed %d jobs, uninterrupted %d", name, got.CompletedJobs, want.CompletedJobs)
		}
		if math.Float64bits(got.BestLoss) != math.Float64bits(want.BestLoss) {
			t.Errorf("%s: resumed best %x, uninterrupted %x", name,
				math.Float64bits(got.BestLoss), math.Float64bits(want.BestLoss))
		}
	}
}

// divergingObjective reports +Inf for some configurations — a diverged
// training run. The journal must carry it (bit-exact) instead of
// refusing to encode it and killing the durable run.
func divergingObjective(_ context.Context, cfg Config, _, to float64, _ interface{}) (float64, interface{}, error) {
	if cfg["momentum"] > 0.8 {
		return math.Inf(1), nil, nil
	}
	return resumeObjective(context.Background(), cfg, 0, to, nil)
}

func TestTunerJournalSurvivesNonFiniteLosses(t *testing.T) {
	dir := t.TempDir()
	run := func() *Result {
		res, err := New(testSpace(), divergingObjective, ASHA{Eta: 4, MinResource: 1, MaxResource: 256},
			WithWorkers(1), WithSeed(21), WithMaxJobs(200), WithStateDir(dir)).Resume(context.Background())
		if err != nil {
			t.Fatalf("durable run with diverging objective: %v", err)
		}
		return res
	}
	first := run()
	if first.CompletedJobs != 200 {
		t.Fatalf("completed %d jobs, want 200", first.CompletedJobs)
	}
	// Resume of the finished journal replays the Inf losses bit-exact.
	again := run()
	if math.Float64bits(again.BestLoss) != math.Float64bits(first.BestLoss) {
		t.Fatalf("replayed best %v, want %v", again.BestLoss, first.BestLoss)
	}
}

func TestManagerRejectsCollidingJournalFileNames(t *testing.T) {
	m := NewManager(WithManagerWorkers(1), WithManagerStateDir(t.TempDir()))
	for _, name := range []string{"exp/1", "exp_1"} {
		if err := m.Add(Experiment{
			Name: name, Space: testSpace(), Objective: resumeObjective,
			Algorithm: ASHA{Eta: 4, MinResource: 1, MaxResource: 256}, MaxJobs: 10,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "same journal file") {
		t.Fatalf("colliding journal file names accepted: %v", err)
	}
}

func TestManagerResumeWithoutJournalsStartsFresh(t *testing.T) {
	res, err := managerForResume(t.TempDir(), 40).Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range res {
		if r.CompletedJobs != 40 {
			t.Errorf("%s: completed %d jobs, want 40", name, r.CompletedJobs)
		}
	}
}

// A journal of another format — here the JSON lines format 1 wrote — is
// refused by name and left exactly as it was: Tuner.Resume, Manager.Resume
// and an admin adopt neither truncate it, append to it nor start a fresh
// journal over it.
func TestResumeRefusesForeignJournalAndLeavesItAlone(t *testing.T) {
	old := []byte("{\"v\":1,\"meta\":{\"experiment\":\"tuner\",\"seed\":21}}\n{\"v\":1,\"issue\":{\"tri")
	plant := func(t *testing.T, name string) (dir, path string) {
		dir = t.TempDir()
		path = filepath.Join(dir, name)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir, path
	}
	check := func(t *testing.T, err error, path string) {
		t.Helper()
		if !errors.Is(err, state.ErrFormat) || !strings.Contains(err.Error(), "format-1 (JSON-lines)") ||
			!strings.Contains(err.Error(), "writes format 4") {
			t.Errorf("err = %v, want state.ErrFormat naming both formats", err)
		}
		if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, old) {
			t.Errorf("the refused journal changed: %q (%v)", got, rerr)
		}
	}
	t.Run("Tuner.Resume", func(t *testing.T) {
		dir, path := plant(t, tunerJournalName)
		_, err := resumeTuner(dir, 50).Resume(context.Background())
		check(t, err, path)
	})
	t.Run("Tuner.Resume on a Remote", func(t *testing.T) {
		dir, path := plant(t, tunerJournalName)
		announced := false
		rem := Remote{OnListen: func(string) { announced = true }}
		_, err := resumeTuner(dir, 50, WithBackend(rem)).Resume(context.Background())
		check(t, err, path)
		if announced {
			t.Error("a refused resume announced its lease server")
		}
	})
	t.Run("Manager.Resume", func(t *testing.T) {
		dir, path := plant(t, journalFileName("exp-b"))
		_, err := managerForResume(dir, 50).Resume(context.Background())
		check(t, err, path)
	})
	t.Run("adopt", func(t *testing.T) {
		dir, path := plant(t, journalFileName("exp-b"))
		const token = "mgr-admin"
		urlCh := make(chan string, 1)
		m := managerForResume(dir, 50,
			WithManagerRemote(Remote{AdminToken: token, OnListen: func(url string) { urlCh <- url }}))
		m.dormant = true
		done := make(chan error, 1)
		go func() {
			_, err := m.Run(context.Background())
			done <- err
		}()
		url := <-urlCh
		status, body := fleetAdmin(t, url, token, "adopt", `{"experiment":"exp-b"}`)
		msg, _ := body["error"].(string)
		if status == http.StatusOK || !strings.Contains(msg, "format-1 (JSON-lines)") {
			t.Errorf("adopt over a format-1 journal: status %d, body %v", status, body)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
			t.Errorf("the refused journal changed: %q (%v)", got, err)
		}
		if st := fleetStatus(t, url, token); len(st.Experiments) != 2 || st.Experiments[1].State != "dormant" {
			t.Errorf("after the refused adopt: %+v, want exp-b still dormant", st.Experiments)
		}
		if status, _ := fleetAdmin(t, url, token, "abort", `{}`); status != http.StatusOK {
			t.Fatalf("abort: status %d", status)
		}
		if err := <-done; err != nil {
			t.Fatalf("manager run: %v", err)
		}
	})
}
