// Command ashactl operates a live tuning run from the outside: it talks
// to the observability-and-operations plane an embedded lease server
// exposes when configured with Metrics/Events/AdminToken (asha.Remote,
// or ashad's manifest "remote" block).
//
// Usage:
//
//	ashactl -server http://host:port -token SECRET <command> [args]
//
// Commands:
//
//	status               full run status: experiments, counters, drain state
//	top [-n N] [-i DUR]  compact per-experiment table, refreshed every -i
//	pause [experiment]   stop issuing jobs (all experiments when omitted)
//	resume [experiment]  lift a pause
//	abort [experiment]   end the run; queued jobs are canceled, the
//	                     incumbent so far is kept
//	workers N            set the shared worker budget / lease cap
//	drain [on|off]       tell polling workers the run is over (on) so the
//	                     fleet scales to zero; off lets a new fleet rejoin
//	tail [experiment]    stream live run events (NDJSON from /v1/events)
//	metrics              raw Prometheus scrape of /metrics
//	latency              latency quantile summary (queue wait, exec,
//	                     report settle, heartbeat RTT) computed from the
//	                     /metrics histogram families, plus a
//	                     per-experiment exec-time breakdown
//	trace [trial]        recent settled-job span timelines from
//	                     /v1/trace (all jobs when trial is omitted):
//	                     queue/dwell/exec/buffer/settle per job, with
//	                     stragglers flagged
//	shards               federation shard table from a coordinator's
//	                     /v1/shards: liveness, heartbeat age, owned
//	                     experiments, failover count
//	tenants              per-tenant rollup of a shard's admin status:
//	                     quota weight, running/issued/completed/failed
//	adopt EXPERIMENT     activate a dormant experiment on this shard
//	                     (the coordinator's failover path, manually)
//	drop EXPERIMENT      adopt's inverse: stop scheduling the
//	                     experiment, close its journal and go dormant —
//	                     fencing a shard off an experiment another
//	                     shard now owns
//	journal FILE         print a state journal (tuner.journal,
//	                     <experiment>.journal) as one JSON object per
//	                     record, for jq and grep; reads the file, needs
//	                     no server
//
// -token carries the admin secret (AdminToken server-side) — a separate
// credential from the worker token. Pause freezes both the scheduler's
// grants and the server's queued jobs; in-flight jobs finish and report
// normally, so a paused run holds its exact state until resume.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/state"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ashactl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server  = fs.String("server", "http://127.0.0.1:8700", "base URL of the tuning run's embedded server")
		token   = fs.String("token", "", "admin token (the server's AdminToken)")
		timeout = fs.Duration("timeout", 10*time.Second, "per-request timeout (tail streams are exempt)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: ashactl -server URL -token SECRET <status|top|pause|resume|abort|workers|drain|tail|metrics|latency|trace|shards|tenants|adopt|drop|journal> [args]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	c := &client{base: strings.TrimRight(*server, "/"), token: *token, hc: &http.Client{Timeout: *timeout}}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	if err := dispatch(ctx, c, cmd, rest, stdout); err != nil {
		fmt.Fprintf(stderr, "ashactl: %v\n", err)
		return 1
	}
	return 0
}

func dispatch(ctx context.Context, c *client, cmd string, args []string, stdout io.Writer) error {
	experimentArg := func() string {
		if len(args) > 0 {
			return args[0]
		}
		return ""
	}
	switch cmd {
	case "status":
		st, err := c.status(ctx)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, formatStatus(st))
		return nil
	case "top":
		return c.top(ctx, args, stdout)
	case "pause", "resume", "abort":
		var resp struct {
			OK       bool `json:"ok"`
			Canceled int  `json:"canceled"`
		}
		if err := c.admin(ctx, cmd, map[string]string{"experiment": experimentArg()}, &resp); err != nil {
			return err
		}
		target := experimentArg()
		if target == "" {
			target = "all experiments"
		}
		switch cmd {
		case "abort":
			fmt.Fprintf(stdout, "aborted %s (%d queued jobs canceled)\n", target, resp.Canceled)
		default:
			fmt.Fprintf(stdout, "%sd %s\n", cmd, target)
		}
		return nil
	case "workers":
		if len(args) != 1 {
			return fmt.Errorf("usage: workers N")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("workers: %q is not a number", args[0])
		}
		var resp struct {
			OK bool `json:"ok"`
		}
		if err := c.admin(ctx, "workers", map[string]int{"workers": n}, &resp); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "worker budget set to %d\n", n)
		return nil
	case "drain":
		on := true
		if len(args) > 0 {
			switch args[0] {
			case "on":
			case "off":
				on = false
			default:
				return fmt.Errorf("usage: drain [on|off]")
			}
		}
		var resp struct {
			OK bool `json:"ok"`
		}
		if err := c.admin(ctx, "drain", map[string]bool{"drain": on}, &resp); err != nil {
			return err
		}
		if on {
			fmt.Fprintln(stdout, "draining: workers will exit on their next poll; queued jobs stay queued")
		} else {
			fmt.Fprintln(stdout, "drain lifted: new workers will be granted jobs again")
		}
		return nil
	case "tail":
		return c.tail(ctx, experimentArg(), stdout)
	case "metrics":
		text, err := c.metrics(ctx)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, text)
		return nil
	case "latency":
		text, err := c.metrics(ctx)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, formatLatency(obs.ParseProm(text)))
		return nil
	case "trace":
		url := c.base + "/v1/trace?n=50"
		if len(args) > 0 {
			if _, err := strconv.Atoi(args[0]); err != nil {
				return fmt.Errorf("trace: %q is not a trial number", args[0])
			}
			url += "&trial=" + args[0]
		}
		var tr struct {
			Total int64            `json:"total"`
			Spans []remote.JobSpan `json:"spans"`
		}
		if err := c.getJSON(ctx, url, &tr); err != nil {
			return err
		}
		fmt.Fprint(stdout, formatTrace(tr.Total, tr.Spans))
		return nil
	case "shards":
		var st remote.ShardsStatus
		if err := c.getJSON(ctx, c.base+"/v1/shards", &st); err != nil {
			return err
		}
		fmt.Fprint(stdout, formatShards(st))
		return nil
	case "tenants":
		st, err := c.status(ctx)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, formatTenants(st))
		return nil
	case "adopt":
		if len(args) != 1 || args[0] == "" {
			return fmt.Errorf("usage: adopt EXPERIMENT")
		}
		var resp struct {
			OK bool `json:"ok"`
		}
		if err := c.admin(ctx, "adopt", map[string]string{"experiment": args[0]}, &resp); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "adopted %s: this shard now schedules it\n", args[0])
		return nil
	case "drop":
		if len(args) != 1 || args[0] == "" {
			return fmt.Errorf("usage: drop EXPERIMENT")
		}
		var resp struct {
			OK       bool `json:"ok"`
			Canceled int  `json:"canceled"`
		}
		if err := c.admin(ctx, "drop", map[string]string{"experiment": args[0]}, &resp); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "dropped %s: this shard no longer schedules it (%d queued jobs canceled)\n", args[0], resp.Canceled)
		return nil
	case "journal":
		if len(args) != 1 {
			return fmt.Errorf("usage: journal FILE")
		}
		return dumpJournal(args[0], stdout)
	default:
		return fmt.Errorf("unknown command %q (want status, top, pause, resume, abort, workers, drain, tail, metrics, latency, trace, shards, tenants, adopt, drop, or journal)", cmd)
	}
}

// dumpJournal prints the committed records of a journal file, head
// record first, one JSON object per line in the shape of state's struct
// tags; a checkpoint record prints as a summary of where it is and what
// it holds, not its scheduler image. A torn or corrupt tail is reported
// after the records before it.
func dumpJournal(path string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rec, err := state.Recover(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	s, _ := state.NewScanner(data) // the records again, for their offsets
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(state.Record{V: state.Version, Meta: &rec.Meta}); err != nil {
		return err
	}
	for _, r := range rec.Records {
		at := s.CleanOffset
		s.Scan()
		line := jsonRecord{Record: r}
		switch {
		case r.Report != nil:
			line.Report = &jsonReport{*r.Report, jsonFloat(r.Report.Loss), jsonFloat(r.Report.TrueLoss)}
		case r.Checkpoint != nil:
			line.Checkpoint = &jsonCheckpoint{Offset: at, Bytes: s.CleanOffset - at,
				Scheduler: core.StateKind(r.Checkpoint.Sched), InFlight: len(r.Checkpoint.InFlight)}
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if rec.Truncated {
		return fmt.Errorf("%s: the %d bytes past offset %d are not committed records (torn or corrupt tail)",
			path, int64(len(data))-rec.CleanOffset, rec.CleanOffset)
	}
	return nil
}

// jsonRecord is state.Record with a report's losses overridden — a JSON
// number cannot carry the NaN or ±Inf a diverged objective reports, so
// those print as strings — and a checkpoint summarized.
type jsonRecord struct {
	state.Record
	Report     *jsonReport     `json:"report,omitempty"`
	Checkpoint *jsonCheckpoint `json:"checkpoint,omitempty"`
}

// jsonCheckpoint is a checkpoint record's line: its frame's offset and
// size in the file, the scheduler its image is of, and how many jobs
// were in flight.
type jsonCheckpoint struct {
	Offset    int64  `json:"offset"`
	Bytes     int64  `json:"bytes"`
	Scheduler string `json:"scheduler"`
	InFlight  int    `json:"inflight"`
}

type jsonReport struct {
	state.Report
	Loss     interface{} `json:"loss,omitempty"`
	TrueLoss interface{} `json:"true,omitempty"`
}

func jsonFloat(v float64) interface{} {
	switch {
	case v == 0:
		return nil // omitted, as the struct tag would
	case math.IsNaN(v) || math.IsInf(v, 0):
		return fmt.Sprint(v) // "NaN", "+Inf", "-Inf"
	}
	return v
}

// client speaks the admin and observability endpoints.
type client struct {
	base  string
	token string
	hc    *http.Client
}

func (c *client) admin(ctx context.Context, cmd string, body, out interface{}) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/admin/"+cmd, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var we struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &we) == nil && we.Error != "" {
			return fmt.Errorf("%s: %s", cmd, we.Error)
		}
		return fmt.Errorf("%s: server answered %s", cmd, resp.Status)
	}
	return json.Unmarshal(payload, out)
}

func (c *client) status(ctx context.Context) (remote.AdminStatus, error) {
	var st remote.AdminStatus
	err := c.admin(ctx, "status", struct{}{}, &st)
	return st, err
}

// getJSON fetches one JSON endpoint and decodes the reply. The admin
// token travels along for endpoints that gate on it (a coordinator's
// /v1/shards); read-only observability endpoints ignore it.
func (c *client) getJSON(ctx context.Context, url string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: server answered %s", req.URL.Path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *client) metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("metrics: server answered %s", resp.Status)
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	return string(blob), err
}

// tail streams /v1/events, printing one formatted line per event until
// the stream ends (run over) or ctx is cancelled (^C).
func (c *client) tail(ctx context.Context, experiment string, stdout io.Writer) error {
	url := c.base + "/v1/events"
	if experiment != "" {
		url += "?experiment=" + experiment
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	// Streams outlive any sane request timeout: use a bare client and
	// rely on ctx for cancellation.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("tail: server answered %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		e, err := obs.DecodeEvent(line)
		if err != nil {
			continue // skip records from a newer server rather than dying
		}
		fmt.Fprintln(stdout, formatEvent(e))
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// top renders a compact refreshing table; -n bounds the refresh count
// (0 = until interrupted), -i sets the interval.
func (c *client) top(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	count := fs.Int("n", 0, "number of refreshes (0 = until interrupted)")
	interval := fs.Duration("i", 2*time.Second, "refresh interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for i := 0; ; i++ {
		st, err := c.status(ctx)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, formatTop(st))
		if *count > 0 && i+1 >= *count {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

// --- pure formatters (golden-tested) ---

// expName renders the single-experiment run's empty name readably.
func expName(name string) string {
	if name == "" {
		return "(run)"
	}
	return name
}

func formatStatus(st remote.AdminStatus) string {
	var b strings.Builder
	fmt.Fprintf(&b, "draining: %v   lease cap: %d   worker budget: %d\n", st.Draining, st.LeaseCap, st.Workers)
	if len(st.Paused) > 0 {
		names := make([]string, len(st.Paused))
		for i, p := range st.Paused {
			names[i] = expName(p)
		}
		fmt.Fprintf(&b, "paused queues: %s\n", strings.Join(names, ", "))
	}
	c := st.Counters
	fmt.Fprintf(&b, "jobs: %d submitted, %d pending, %d leased, %d canceled\n",
		c.Submitted, c.Pending, c.Leased, c.Canceled)
	fmt.Fprintf(&b, "leases: %d granted, %d expired; reports: %d accepted, %d rejected\n",
		c.Granted, c.Expired, c.Accepted, c.Rejected)
	fmt.Fprintf(&b, "fleet: %d workers registered, %d events dropped\n", c.Registered, c.EventsDropped)
	if st.ControlError != "" {
		fmt.Fprintf(&b, "control plane unavailable: %s\n", st.ControlError)
	}
	if len(st.Experiments) > 0 {
		fmt.Fprintf(&b, "\n%-20s %-8s %7s %7s %6s %5s %10s  %s\n",
			"experiment", "state", "issued", "done", "fail", "run", "best", "rungs")
		for _, e := range sortedExperiments(st.Experiments) {
			best := "-"
			if e.HasBest {
				best = strconv.FormatFloat(e.BestLoss, 'g', 6, 64)
			}
			rungs := make([]string, len(e.RungCompleted))
			for i, n := range e.RungCompleted {
				rungs[i] = strconv.Itoa(n)
			}
			fmt.Fprintf(&b, "%-20s %-8s %7d %7d %6d %5d %10s  %s\n",
				expName(e.Experiment), e.State, e.Issued, e.Completed, e.Failed, e.Running,
				best, strings.Join(rungs, "/"))
		}
	}
	return b.String()
}

func formatTop(st remote.AdminStatus) string {
	var b strings.Builder
	c := st.Counters
	fmt.Fprintf(&b, "budget %d | pending %d leased %d | granted %d expired %d accepted %d\n",
		st.Workers, c.Pending, c.Leased, c.Granted, c.Expired, c.Accepted)
	for _, e := range sortedExperiments(st.Experiments) {
		best := "-"
		if e.HasBest {
			best = strconv.FormatFloat(e.BestLoss, 'g', 4, 64)
		}
		fmt.Fprintf(&b, "%-20s %-8s run %-4d done %-6d best %s\n",
			expName(e.Experiment), e.State, e.Running, e.Completed, best)
	}
	return b.String()
}

// sortedExperiments orders by most running, then name, so the busiest
// experiments surface first in top.
func sortedExperiments(exps []remote.ExpStatus) []remote.ExpStatus {
	out := append([]remote.ExpStatus(nil), exps...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Running != out[j].Running {
			return out[i].Running > out[j].Running
		}
		return out[i].Experiment < out[j].Experiment
	})
	return out
}

func formatEvent(e obs.Event) string {
	ts := time.UnixMilli(e.TimeMs).UTC().Format("15:04:05.000")
	exp := expName(e.Experiment)
	switch e.Type {
	case obs.EventIssued:
		return fmt.Sprintf("%s %-16s issued    trial %-5d rung %d  to r=%g", ts, exp, e.Trial, e.Rung, e.Resource)
	case obs.EventCompleted:
		return fmt.Sprintf("%s %-16s completed trial %-5d rung %d  loss %.6g at r=%g", ts, exp, e.Trial, e.Rung, e.Loss, e.Resource)
	case obs.EventFailed:
		return fmt.Sprintf("%s %-16s FAILED    trial %-5d rung %d  (will retry)", ts, exp, e.Trial, e.Rung)
	case obs.EventPromoted:
		return fmt.Sprintf("%s %-16s promoted  trial %-5d to rung %d", ts, exp, e.Trial, e.Rung)
	case obs.EventRungAdvance:
		return fmt.Sprintf("%s %-16s rung %d reached", ts, exp, e.Rung)
	case obs.EventIncumbent:
		return fmt.Sprintf("%s %-16s new incumbent: trial %-5d loss %.6g at r=%g", ts, exp, e.Trial, e.Loss, e.Resource)
	case obs.EventStraggler:
		return fmt.Sprintf("%s %-16s STRAGGLER trial %-5d rung %d  exec %s (>k×p95 of rung)",
			ts, exp, e.Trial, e.Rung, time.Duration(e.DurMs)*time.Millisecond)
	case obs.EventDropped:
		return fmt.Sprintf("%s (stream)         %d events dropped (slow consumer)", ts, e.Count)
	default:
		return fmt.Sprintf("%s %-16s %s trial %-5d", ts, exp, e.Type, e.Trial)
	}
}

// scrapedHist is one histogram family reconstructed from a /metrics
// scrape: the cumulative bucket counts keyed by their upper bounds.
type scrapedHist struct {
	count, sum float64
	les        []float64 // sorted upper bounds (seconds; +Inf last)
	cum        []float64 // cumulative counts aligned with les
}

// histFromScrape pulls one histogram family out of a parsed scrape.
// labels is the family's fixed label block without le (e.g.
// `experiment="cifar"`), empty for unlabeled families.
func histFromScrape(m map[string]float64, name, labels string) (scrapedHist, bool) {
	prefix := name + `_bucket{`
	if labels != "" {
		prefix += labels + `,`
	}
	prefix += `le="`
	var h scrapedHist
	type bkt struct{ le, cum float64 }
	var bkts []bkt
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, `"}`) {
			continue
		}
		les := k[len(prefix) : len(k)-2]
		le := math.Inf(1)
		if les != "+Inf" {
			f, err := strconv.ParseFloat(les, 64)
			if err != nil {
				continue
			}
			le = f
		}
		bkts = append(bkts, bkt{le: le, cum: v})
	}
	if len(bkts) == 0 {
		return h, false
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	for _, b := range bkts {
		h.les = append(h.les, b.le)
		h.cum = append(h.cum, b.cum)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	h.count = m[name+"_count"+suffix]
	h.sum = m[name+"_sum"+suffix]
	return h, true
}

// quantile interpolates the q-quantile (seconds) from the cumulative
// buckets, mirroring the server-side histogram's estimator.
func (h scrapedHist) quantile(q float64) float64 {
	total := h.count
	if total <= 0 {
		return 0
	}
	rank := math.Ceil(q * total)
	if rank < 1 {
		rank = 1
	}
	for i, c := range h.cum {
		if c < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.les[i-1]
		}
		hi := h.les[i]
		if math.IsInf(hi, 1) {
			return lo // overflow bucket: report its lower bound
		}
		inBkt := c
		if i > 0 {
			inBkt -= h.cum[i-1]
		}
		if inBkt <= 0 {
			return hi
		}
		return lo + (hi-lo)*((rank-(c-inBkt))/inBkt)
	}
	return 0
}

func (h scrapedHist) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// fmtSecs renders a latency in seconds for the summary tables.
func fmtSecs(s float64) string {
	if s <= 0 {
		return "-"
	}
	return fmtDurCtl(time.Duration(s * float64(time.Second)))
}

func fmtUs(us int64) string {
	if us <= 0 {
		return "-"
	}
	return fmtDurCtl(time.Duration(us) * time.Microsecond)
}

func fmtDurCtl(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// formatLatency renders the latency summary from a parsed /metrics
// scrape: the four server-wide stage histograms, then the
// per-experiment exec breakdown.
func formatLatency(m map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %12s %12s %12s %12s\n", "stage", "count", "p50", "p90", "p99", "mean")
	families := []struct{ label, name string }{
		{"queue wait", "asha_queue_wait_seconds"},
		{"exec", "asha_exec_seconds"},
		{"report settle", "asha_report_settle_seconds"},
		{"heartbeat rtt", "asha_heartbeat_rtt_seconds"},
	}
	any := false
	for _, f := range families {
		h, ok := histFromScrape(m, f.name, "")
		if !ok {
			continue
		}
		any = true
		fmt.Fprintf(&b, "%-16s %10d %12s %12s %12s %12s\n", f.label, int64(h.count),
			fmtSecs(h.quantile(0.5)), fmtSecs(h.quantile(0.9)), fmtSecs(h.quantile(0.99)), fmtSecs(h.mean()))
	}
	if !any {
		return "no latency histograms in the scrape (server not started with Metrics?)\n"
	}
	// Per-experiment exec breakdown: discover the label values from the
	// family's _count samples.
	const expFam = "asha_experiment_exec_seconds"
	prefix := expFam + `_count{experiment="`
	var exps []string
	for k := range m {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, `"}`) {
			exps = append(exps, k[len(prefix):len(k)-2])
		}
	}
	if len(exps) > 0 {
		sort.Strings(exps)
		fmt.Fprintf(&b, "\n%-20s %10s %12s %12s %12s\n", "experiment exec", "count", "p50", "p99", "mean")
		for _, e := range exps {
			h, ok := histFromScrape(m, expFam, `experiment="`+e+`"`)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-20s %10d %12s %12s %12s\n", expName(e), int64(h.count),
				fmtSecs(h.quantile(0.5)), fmtSecs(h.quantile(0.99)), fmtSecs(h.mean()))
		}
	}
	return b.String()
}

// formatShards renders a coordinator's shard table.
func formatShards(st remote.ShardsStatus) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d shards, %d failovers\n", len(st.Shards), st.Failovers)
	fmt.Fprintf(&b, "%-12s %-6s %10s  %-24s %s\n", "shard", "state", "heartbeat", "url", "experiments")
	for _, s := range st.Shards {
		state := "DOWN"
		switch {
		case s.Up:
			state = "up"
		case !s.Registered:
			state = "-"
		}
		beat := "-"
		if s.AgeMillis >= 0 {
			beat = (time.Duration(s.AgeMillis) * time.Millisecond).Round(time.Millisecond).String() + " ago"
		}
		url := s.URL
		if url == "" {
			url = "-"
		}
		fmt.Fprintf(&b, "%-12s %-6s %10s  %-24s %s\n",
			s.ID, state, beat, url, strings.Join(s.Experiments, ", "))
	}
	return b.String()
}

// formatTenants rolls one shard's admin status up by tenant namespace
// (the experiment-name prefix before '/').
func formatTenants(st remote.AdminStatus) string {
	type agg struct{ exps, issued, completed, failed, running int }
	tenants := make(map[string]*agg)
	for _, e := range st.Experiments {
		t := remote.TenantOf(e.Experiment)
		a := tenants[t]
		if a == nil {
			a = &agg{}
			tenants[t] = a
		}
		a.exps++
		a.issued += e.Issued
		a.completed += e.Completed
		a.failed += e.Failed
		a.running += e.Running
	}
	if len(tenants) == 0 {
		return "no experiments\n"
	}
	names := make([]string, 0, len(tenants))
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %6s %7s %7s %6s %5s\n",
		"tenant", "weight", "exps", "issued", "done", "fail", "run")
	for _, t := range names {
		a := tenants[t]
		w := "1"
		if n, ok := st.TenantWeights[t]; ok {
			w = strconv.Itoa(n)
		}
		name := t
		if name == "" {
			name = "(none)"
		}
		fmt.Fprintf(&b, "%-16s %6s %6d %7d %7d %6d %5d\n",
			name, w, a.exps, a.issued, a.completed, a.failed, a.running)
	}
	return b.String()
}

// formatTrace renders /v1/trace spans, newest first, one line per
// settled job.
func formatTrace(total int64, spans []remote.JobSpan) string {
	var b strings.Builder
	if len(spans) == 0 {
		return fmt.Sprintf("no spans (total settled: %d)\n", total)
	}
	fmt.Fprintf(&b, "%d spans of %d settled (newest first)\n", len(spans), total)
	fmt.Fprintf(&b, "%-12s %-16s %6s %4s %9s %9s %9s %9s %9s  %s\n",
		"settled", "experiment", "trial", "rung", "queue", "dwell", "exec", "buffer", "settle", "flags")
	for _, sp := range spans {
		ts := time.UnixMilli(sp.SettleUnixMs).UTC().Format("15:04:05.000")
		var flags []string
		if sp.Straggler {
			flags = append(flags, "STRAGGLER")
		}
		if sp.Err {
			flags = append(flags, "err")
		}
		fmt.Fprintf(&b, "%-12s %-16s %6d %4d %9s %9s %9s %9s %9s  %s\n",
			ts, expName(sp.Experiment), sp.Trial, sp.Rung,
			fmtUs(sp.QueueUs), fmtUs(sp.DwellUs), fmtUs(sp.ExecUs), fmtUs(sp.BufUs), fmtUs(sp.SettleUs),
			strings.Join(flags, ","))
	}
	return b.String()
}
