// Command perfbench is the campaign benchmark of the repository. It runs
// one workload — a closed loop of fault-injection campaigns with one
// client, submitting the next campaign only once the previous one's
// merged logs and results are readable — through the public entry
// points (core.RunConfig, or the /v1 campaign service with an
// in-process worker fleet), checks every campaign's outputs, and prints
// the end-to-end metrics. With -trace 1 it instead records the
// per-layer metrics: service round trips, plan-time GoldenCache work,
// per-run phases, log persistence and raw simulator speed, all timed
// from outside through public functions.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"campaign_s": {"value": ..., "unit": "s"}, ...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload matrix-svc --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/svc/api"
)

// processStart approximates when the process started: package
// initialization runs before main.
var processStart = time.Now()

//go:embed expected.json
var expectedJSON []byte

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	work     string
	root     string
	record   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "matrix-svc", "workload: matrix-svc, window-live or detail-full")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the campaign config's seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long the closed loop submits campaigns")
	fs.IntVar(&trace, "trace", 0, "1: record the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.tiny, "tiny", false, "run the tiny-size configs (self-test)")
	fs.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for logs, spools and journals")
	fs.StringVar(&o.root, "root", ".", "source tree the benchmark was built from (for the commit stamp)")
	fs.StringVar(&o.record, "record", "", "write the reference outcome of this run into this expected-outcomes file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	res, err := benchmark(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checker tallies masks attempted and failed against a reference outcome.
type checker struct {
	ref       outcome
	haveRef   bool
	refSource string
	attempted int
	failed    int
	notes     []string
}

// setRef makes out the reference unless one is already set.
func (c *checker) setRef(out outcome, source string) {
	if !c.haveRef {
		c.ref, c.haveRef, c.refSource = out, true, source
	}
}

// check counts cr's masks, failing all of them when the campaign errored
// or its outputs differ from the reference, and those without a verdict.
func (c *checker) check(label string, cr campaignRun) {
	c.attempted += cr.masks
	switch {
	case cr.err != nil:
		c.failed += cr.masks
		c.notes = append(c.notes, fmt.Sprintf("%s: %v", label, cr.err))
	case c.haveRef && !cr.out.equal(c.ref):
		c.failed += cr.masks
		c.notes = append(c.notes, fmt.Sprintf("%s: merged logs %s %v differ from reference %s %v", label, cr.out.Digest, cr.out.Classes, c.ref.Digest, c.ref.Classes))
	default:
		c.failed += cr.masks - cr.decided
		if cr.decided < cr.masks {
			c.notes = append(c.notes, fmt.Sprintf("%s: %d of %d masks without a verdict", label, cr.masks-cr.decided, cr.masks))
		}
	}
}

func (c *checker) result(r *report) result {
	res := result{Correct: c.failed == 0 && c.attempted > 0, Attempted: c.attempted, Failed: c.failed, Metrics: make(map[string]metricValue)}
	for _, m := range r.metrics {
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return res
}

// expectedKey names a recorded reference outcome.
func expectedKey(o options) string {
	size := "full"
	if o.tiny {
		size = "tiny"
	}
	return fmt.Sprintf("%s/%s/seed=%d", o.workload, size, o.seed)
}

func loadExpected() (map[string]outcome, error) {
	m := make(map[string]outcome)
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// recordExpected merges out under key into the expected-outcomes file.
func recordExpected(file, key string, out outcome) error {
	m := make(map[string]outcome)
	if b, err := os.ReadFile(file); err == nil {
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	m[key] = out
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(b, '\n'), 0o644)
}

// setup brings the workload to the point where a campaign can be
// submitted: the config validated, every row's simulator factory
// resolved (its program images linked) and, for /v1 campaigns, the
// service up with every worker polling.
func setup(cfg core.CampaignConfig, withFleet bool, dir string, rt http.RoundTripper) (*fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, c := range cfg.Campaigns {
		if _, err := cli.Resolve(c.Tool, c.Benchmark); err != nil {
			return nil, err
		}
	}
	if !withFleet {
		return nil, nil
	}
	return startFleet(dir, rt)
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 15

// setupRepeated sets up several times, keeping the last fleet, and
// returns the set-up times; the first is timed from process start.
func setupRepeated(cfg core.CampaignConfig, withFleet bool, dir string) (*fleet, []float64, error) {
	var times []float64
	var f *fleet
	for i := 0; i < setups; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		f, err = setup(cfg, withFleet, filepath.Join(dir, "svc-"+strconv.Itoa(i)), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return f, times, nil
}

func benchmark(o options, stdout io.Writer) (result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("-seconds must be positive")
	}
	cfg := w.config(o.seed, o.tiny)
	expected, err := loadExpected()
	if err != nil {
		return result{}, err
	}
	env := stampEnvironment(o.root)
	env.Seed, env.Workload, env.Trace, env.Size = o.seed, w.name, o.trace, "full"
	if o.tiny {
		env.Size = "tiny"
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)

	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.work, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	var ck checker
	if exp, ok := expected[expectedKey(o)]; ok {
		ck.setRef(exp, "recorded in expected.json")
	}
	var rep report
	if o.trace {
		err = traced(w, cfg, dir, &ck, &rep, stdout)
	} else {
		err = untraced(o.seconds, w, cfg, dir, &ck, &rep, stdout)
	}
	if err != nil {
		return result{}, err
	}
	totals := make(map[string]int)
	for _, counts := range ck.ref.Classes {
		for cls, n := range counts {
			totals[cls] += n
		}
	}
	fmt.Fprintf(stdout, "info classes")
	for _, cls := range sortedKeys(totals) {
		fmt.Fprintf(stdout, " %s=%d", cls, totals[cls])
	}
	fmt.Fprintln(stdout)
	rep.print(stdout)
	for _, n := range ck.notes {
		fmt.Fprintf(stdout, "check FAIL %s\n", n)
	}
	fmt.Fprintf(stdout, "check %s reference digest %s (%s); %d of %d masks failed\n",
		expectedKey(o), ck.ref.Digest, ck.refSource, ck.failed, ck.attempted)
	if o.record != "" {
		if ck.failed > 0 {
			return result{}, fmt.Errorf("not recording a run with failed masks")
		}
		if err := recordExpected(o.record, expectedKey(o), ck.ref); err != nil {
			return result{}, err
		}
	}
	return ck.result(&rep), nil
}

// untraced runs the closed loop for the given seconds with tracing off
// and reports the end-to-end metrics.
func untraced(seconds float64, w workload, cfg core.CampaignConfig, dir string, ck *checker, rep *report, stdout io.Writer) error {
	f, setupTimes, err := setupRepeated(cfg, w.viaService, dir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	r := &runner{cfg: cfg, fleet: f, dir: dir}
	p := viaRunConfig
	if w.viaService {
		p = viaService
	}
	var runs []campaignRun
	start := time.Now()
	for len(runs) == 0 || time.Since(start).Seconds() < seconds {
		cr := r.run(ctx, p, w.options, core.Attach{})
		runs = append(runs, cr)
		if cr.err != nil {
			break
		}
	}
	if f != nil {
		if err := f.stop(); err != nil {
			return err
		}
	}

	// The reference: the recorded outcome for this seed when there is
	// one; else, for /v1 campaigns, core.RunConfig of the same config
	// (the distribution guarantee); else the first campaign.
	if w.viaService {
		lcfg := cfg
		lcfg.Workers = fleetWorkers
		lr := &runner{cfg: lcfg, dir: dir}
		local := lr.run(ctx, viaRunConfig, api.SubmitOptions{}, core.Attach{})
		if local.err == nil {
			ck.setRef(local.out, "core.RunConfig of the same config")
		}
		ck.check("core.RunConfig reference", local)
	}
	if runs[0].err == nil {
		ck.setRef(runs[0].out, "the first campaign")
	}
	var walls, cpus, rates, mems []float64
	for i, cr := range runs {
		ck.check(fmt.Sprintf("campaign %d via %s", i+1, p), cr)
		if cr.err != nil {
			continue
		}
		walls = append(walls, cr.wall.Seconds())
		cpus = append(cpus, cr.cpu.Seconds())
		rates = append(rates, float64(cr.decided)/cr.wall.Seconds())
		mems = append(mems, float64(cr.peakRSS)/(1<<20))
	}
	if len(walls) == 0 {
		return fmt.Errorf("no campaign completed: %v", runs[0].err)
	}
	margin, err := widestMargin(cfg, runs[0].out)
	if err != nil {
		return err
	}
	rep.addSamples("campaign_s", walls, "s")
	rep.addSamples("cpu_s", cpus, "s")
	rep.add("runs_per_s", median(rates), "1/s", "median of n=%d; %d masks/campaign decided; widest cell margin %.2f%% at 99%% confidence (Leveugle)",
		len(rates), runs[0].decided, 100*margin)
	rep.addSamples("setup_s", setupTimes, "s")
	rep.addSamples("mem_peak_mb", mems, "MB")
	fmt.Fprintf(stdout, "info failed_frac %.4g (%d of %d masks; campaigns %d timed", ratio(float64(ck.failed), float64(ck.attempted)), ck.failed, ck.attempted, len(runs))
	if w.viaService {
		fmt.Fprintf(stdout, " + 1 core.RunConfig reference")
	}
	fmt.Fprintln(stdout, ")")
	return nil
}
