package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/svc/api"
)

// outcome is what the output check compares: the digest of the merged
// log files and the per-cell class counts read back from them.
type outcome struct {
	Digest  string                    `json:"digest"`
	Classes map[string]map[string]int `json:"classes"`
}

func (o outcome) equal(p outcome) bool {
	return o.Digest == p.Digest && reflect.DeepEqual(o.Classes, p.Classes)
}

// campaignRun is one timed campaign.
type campaignRun struct {
	wall    time.Duration
	cpu     time.Duration
	peakRSS uint64 // bytes
	masks   int    // masks attempted
	decided int    // masks given a verdict (pruned ones count, stopped ones do not)
	out     outcome
	err     error

	status  api.CampaignStatus     // /v1 campaigns
	results api.ResultsResponse    // /v1 campaigns
	local   []*core.CampaignResult // core.RunConfig campaigns
}

// path names the public entry point a campaign goes through.
type path int

const (
	viaRunConfig path = iota
	viaService
)

func (p path) String() string {
	if p == viaService {
		return "/v1"
	}
	return "core.RunConfig"
}

// runner executes campaigns of one config through either public path.
type runner struct {
	cfg   core.CampaignConfig
	fleet *fleet // nil when no campaign goes over /v1
	dir   string // scratch space for RunConfig logs
	seq   int
}

// run executes one campaign through p and reads its merged logs back.
// opts are the artifact options of a /v1 submission; att the
// attachments of a core.RunConfig call.
func (r *runner) run(ctx context.Context, p path, opts api.SubmitOptions, att core.Attach) campaignRun {
	cr := campaignRun{}
	for i := range r.cfg.Campaigns {
		cr.masks += r.cfg.MaskCount(i)
	}
	rss := startRSSSampler()
	cpu0 := cpuTime()
	var logsDir string
	switch p {
	case viaService:
		st, res, wall, err := r.fleet.submit(ctx, api.SubmitRequest{Name: "perfbench", Options: opts, Config: r.cfg})
		cr.wall, cr.status, cr.results, cr.err = wall, st, res, err
		logsDir = r.fleet.logsDir(st.ID)
	default:
		r.seq++
		logsDir = filepath.Join(r.dir, "rc-"+strconv.Itoa(r.seq))
		start := time.Now()
		cr.local, cr.err = runLocal(r.cfg, logsDir, att)
		cr.wall = time.Since(start)
	}
	cr.cpu = cpuTime() - cpu0
	cr.peakRSS = rss.stop()
	if cr.err != nil {
		return cr
	}
	cr.out, cr.decided, cr.err = readOutcome(r.cfg, logsDir)
	return cr
}

// runLocal runs cfg through core.RunConfig and stores the merged logs,
// so the campaign ends, as over /v1, with its logs readable.
func runLocal(cfg core.CampaignConfig, dir string, att core.Attach) ([]*core.CampaignResult, error) {
	results, err := core.RunConfig(cfg, cli.Resolve, att)
	if err != nil {
		return nil, err
	}
	logs, err := core.NewLogsRepo(dir)
	if err != nil {
		return nil, err
	}
	for i, k := range cfg.Keys() {
		if err := logs.Store(k, results[i]); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// readOutcome digests the merged log files of cfg under dir (in key
// order, file bytes as written) and classifies their records.
func readOutcome(cfg core.CampaignConfig, dir string) (outcome, int, error) {
	logs, err := core.NewLogsRepo(dir)
	if err != nil {
		return outcome{}, 0, err
	}
	h := sha256.New()
	out := outcome{Classes: make(map[string]map[string]int)}
	decided := 0
	for i, k := range cfg.Keys() {
		b, err := os.ReadFile(filepath.Join(dir, k+".log.jsonl"))
		if err != nil {
			return outcome{}, 0, fmt.Errorf("reading merged log of %s: %w", k, err)
		}
		fmt.Fprintf(h, "%s %d\n", k, len(b))
		h.Write(b)
		res, err := logs.Load(k)
		if err != nil {
			return outcome{}, 0, err
		}
		if len(res.Records) != cfg.MaskCount(i) {
			return outcome{}, 0, fmt.Errorf("%s: %d records for %d masks", k, len(res.Records), cfg.MaskCount(i))
		}
		counts := make(map[string]int)
		for cls, n := range (core.Parser{}).ParseAll(res.Records).Counts {
			counts[string(cls)] = n
			if cls != core.ClassStopped {
				decided += n
			}
		}
		out.Classes[k] = counts
	}
	out.Digest = "sha256:" + hex.EncodeToString(h.Sum(nil))
	return out, decided, nil
}

// widestMargin is the widest Leveugle error margin at 99% confidence
// across the cells of cfg, each over its decided masks and a population
// of its fault sites (live ones for live-only configs) × golden cycles.
func widestMargin(cfg core.CampaignConfig, o outcome) (float64, error) {
	cache := core.NewGoldenCache()
	worst := 0.0
	for i, c := range cfg.Campaigns {
		factory, err := cli.Resolve(c.Tool, c.Benchmark)
		if err != nil {
			return 0, err
		}
		g, err := cache.Golden(c.Tool, c.Benchmark, factory)
		if err != nil {
			return 0, err
		}
		entries, bits, ok, err := cache.Geometry(c.Tool, c.Benchmark, factory, c.Structure)
		if err != nil || !ok {
			return 0, fmt.Errorf("geometry of %s/%s/%s: ok=%v err=%v", c.Tool, c.Benchmark, c.Structure, ok, err)
		}
		if cfg.LiveOnly {
			live, err := cache.LiveEntries(c.Tool, c.Benchmark, factory, c.Structure)
			if err != nil {
				return 0, err
			}
			entries = len(live)
		}
		n := 0
		for cls, k := range o.Classes[cfg.Keys()[i]] {
			if cls != string(core.ClassStopped) {
				n += k
			}
		}
		pop := uint64(entries) * uint64(bits) * g.Cycles //nolint:gosec // sizes are positive
		if m := fault.MarginFor(pop, n, 0.99); m > worst {
			worst = m
		}
	}
	return worst, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler tracks the peak resident set size of the process while it
// runs, sampling /proc/self/statm every few milliseconds.
type rssSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	peak   uint64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	rss := residentBytes()
	s.mu.Lock()
	if rss > s.peak {
		s.peak = rss
	}
	s.mu.Unlock()
}

// stop ends sampling and returns the peak seen.
func (s *rssSampler) stop() uint64 {
	close(s.stopCh)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// residentBytes reads the process's current resident set size.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize()) //nolint:gosec // page size is positive
}
