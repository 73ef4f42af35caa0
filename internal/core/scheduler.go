package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/prune"
	"repro/internal/telemetry"
)

// GoldenCache memoizes fault-free reference runs per {tool, benchmark}.
// A figure matrix shares one golden run across every structure campaign
// of a row (the pre-scheduler path simulated it 2× per structure: once
// in the report layer and once in the campaign controller), and the
// finished machine is kept so LiveOnly entry probing and mask-geometry
// lookups reuse it instead of simulating a twin. Safe for concurrent
// use.
type GoldenCache struct {
	mu      sync.Mutex
	entries map[goldenKey]*goldenEntry
	runs    int
	calls   int

	// ffHits and ffBuilds aggregate the functional fast-forward rung
	// ladder activity across the cache's rows — the ff_rung telemetry
	// gauges. Atomics: windowEntry touches them on the run path.
	ffHits, ffBuilds atomic.Uint64
}

type goldenKey struct{ tool, bench string }

type goldenEntry struct {
	once   sync.Once
	golden GoldenInfo
	sim    Simulator
	err    error

	mu   sync.Mutex
	live map[string][]int // structure → entries live at end of golden run

	// ladderMu guards the memoized checkpoint ladder separately from mu:
	// capturing a ladder simulates most of a golden run, and geometry or
	// live-entry lookups must not block behind it.
	ladderMu sync.Mutex
	ladderK  int
	ladder   []LadderRung

	// profMu guards the memoized liveness profiles (see Profiles), keyed
	// by rung placement and profiled-structure set. Separate from mu for
	// the same reason as ladderMu: a profiled replay simulates a whole
	// golden run.
	profMu   sync.Mutex
	profiles map[string][]prune.Profiles

	// sigMu guards the memoized commit-stream signature (see
	// CommitSignature); building one simulates a whole golden run.
	sigMu sync.Mutex
	sig   *divergence.Signature

	// ffMu guards the memoized functional fast-forward rung ladder (see
	// FFLadder); its rungs fill lazily on the run path under the
	// ladder's own lock.
	ffMu      sync.Mutex
	ffQuantum uint64
	ff        *ffLadder
}

// NewGoldenCache returns an empty memoizer.
func NewGoldenCache() *GoldenCache {
	return &GoldenCache{entries: make(map[goldenKey]*goldenEntry)}
}

func (c *GoldenCache) entry(tool, bench string) *goldenEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[goldenKey{tool, bench}]
	if !ok {
		e = &goldenEntry{}
		c.entries[goldenKey{tool, bench}] = e
	}
	return e
}

// Golden returns the memoized fault-free reference of the {tool, bench}
// row, simulating it on f's machine only on the first call. The returned
// GoldenInfo carries Benchmark but no Structure; campaign code copies it
// and fills the cell-specific fields.
func (c *GoldenCache) Golden(tool, bench string, f Factory) (GoldenInfo, error) {
	e := c.entry(tool, bench)
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	e.once.Do(func() {
		e.golden, e.sim, e.err = goldenRun(f)
		e.golden.Benchmark = bench
		c.mu.Lock()
		c.runs++
		c.mu.Unlock()
	})
	if e.err != nil {
		return GoldenInfo{}, e.err
	}
	g := e.golden
	// Hand out a private stats map: cells of a matrix must not alias.
	g.Stats = make(map[string]uint64, len(e.golden.Stats))
	for k, v := range e.golden.Stats {
		g.Stats[k] = v
	}
	return g, nil
}

// Runs reports how many golden simulations the cache actually performed
// (as opposed to served from memory) — the figure tests assert exactly
// one per {tool, benchmark} row.
func (c *GoldenCache) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// Stats reports the golden lookups split into performed simulations and
// memoized hits — the golden-cache hit-rate gauge of the telemetry
// snapshot. (Geometry and LiveEntries lookups route through Golden, so
// their reuse of the memoized machine counts as hits too.)
func (c *GoldenCache) Stats() (runs, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hits = c.calls - c.runs
	if hits < 0 {
		hits = 0
	}
	return c.runs, hits
}

// Geometry returns the {entries, bitsPerEntry} geometry of one structure
// on the row's machine, reusing the memoized golden simulator. ok is
// false when the tool has no such structure.
func (c *GoldenCache) Geometry(tool, bench string, f Factory, structure string) (entries, bits int, ok bool, err error) {
	e := c.entry(tool, bench)
	if _, gerr := c.Golden(tool, bench, f); gerr != nil {
		return 0, 0, false, gerr
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	arr, found := e.sim.Structures()[structure]
	if !found {
		return 0, 0, false, nil
	}
	return arr.Entries(), arr.BitsPerEntry(), true, nil
}

// LiveEntries returns the entries of structure holding live data at the
// end of the row's golden run — the LiveOnly fault population. The probe
// reuses the memoized golden machine (the pre-scheduler path simulated a
// twin from boot for every campaign) and is itself memoized per
// structure.
func (c *GoldenCache) LiveEntries(tool, bench string, f Factory, structure string) ([]int, error) {
	e := c.entry(tool, bench)
	if _, gerr := c.Golden(tool, bench, f); gerr != nil {
		return nil, gerr
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if live, ok := e.live[structure]; ok {
		return live, nil
	}
	arr, found := e.sim.Structures()[structure]
	if !found {
		return nil, fmt.Errorf("core: %s has no structure %q", e.golden.Tool, structure)
	}
	var live []int
	for i := 0; i < arr.Entries(); i++ {
		if arr.EntryValid(i) {
			live = append(live, i)
		}
	}
	if e.live == nil {
		e.live = make(map[string][]int)
	}
	e.live[structure] = live
	return live, nil
}

// Ladder returns the memoized K-rung checkpoint ladder of the {tool,
// bench} row, capturing it on first use (or when a different K is
// requested) by chaining RunTo/Checkpoint on one machine. An empty
// ladder means the simulator cannot checkpoint; runs boot from scratch.
func (c *GoldenCache) Ladder(tool, bench string, f Factory, k int) ([]LadderRung, error) {
	e := c.entry(tool, bench)
	if _, err := c.Golden(tool, bench, f); err != nil {
		return nil, err
	}
	e.ladderMu.Lock()
	defer e.ladderMu.Unlock()
	if e.ladderK != k {
		e.ladder = makeLadder(f, e.golden, k)
		e.ladderK = k
	}
	return e.ladder, nil
}

// Profiles returns the memoized liveness profiles of the row's replay
// trajectories (boot plus one per rung) for one profiled-structure set,
// running the profiled replays only on the first call. Memoization is
// keyed by the rung capture cycles and the structure names: a shard
// worker re-planning the same campaign hits the memo instead of
// re-simulating 1+len(rungs) golden replays per shard. A nil result (no
// error) means the simulator cannot be profiled and pruning is off for
// the row.
func (c *GoldenCache) Profiles(tool, bench string, f Factory, rungs []LadderRung, structures []string) ([]prune.Profiles, error) {
	e := c.entry(tool, bench)
	if _, err := c.Golden(tool, bench, f); err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%v|%q", rungCycles(rungs), structures)
	e.profMu.Lock()
	defer e.profMu.Unlock()
	if p, ok := e.profiles[key]; ok {
		return p, nil
	}
	p, err := buildRowProfiles(f, rungs, structures, e.golden)
	if err != nil {
		return nil, err
	}
	if e.profiles == nil {
		e.profiles = make(map[string][]prune.Profiles)
	}
	e.profiles[key] = p
	return p, nil
}

// CommitSignature returns the memoized golden commit-stream signature
// of the {tool, bench} row — the per-block hash sequence of fault-free
// committed-instruction PCs that divergence probes compare injected
// runs against — building it on first use with one probed golden
// replay. A nil signature (no error) means the simulator exposes no
// commit probe; divergence records for the row then carry the
// corruption footprint but no divergence verdict.
func (c *GoldenCache) CommitSignature(tool, bench string, f Factory) (*divergence.Signature, error) {
	e := c.entry(tool, bench)
	e.sigMu.Lock()
	defer e.sigMu.Unlock()
	if e.sig != nil {
		return e.sig, nil
	}
	sim := f()
	cp, ok := sim.(CommitProbed)
	if !ok {
		return nil, nil
	}
	b := divergence.NewSignatureBuilder()
	cp.SetCommitProbe(b)
	res := sim.Run(1 << 62)
	if res.Status != RunCompleted {
		return nil, fmt.Errorf("core: signature replay for %s/%s did not complete: %v (%s)", tool, bench, res.Status, res.AssertMsg)
	}
	sig := b.Signature()
	e.sig = &sig
	return e.sig, nil
}

// FFLadder returns the memoized functional fast-forward rung ladder of
// the {tool, bench} row for the given rung count, creating it (empty)
// on first use. Unlike the detailed checkpoint ladder, creation costs
// nothing: rungs are captured lazily on the run path, each from the
// nearest lower rung. golden (the row's memoized reference) supplies
// the committed count the rung quantum is derived from.
func (c *GoldenCache) FFLadder(tool, bench string, golden GoldenInfo, rungs int, noDecode bool) *ffLadder {
	if rungs <= 0 || golden.Committed == 0 {
		return nil
	}
	quantum := golden.Committed / uint64(rungs) //nolint:gosec // rungs > 0
	if quantum == 0 {
		return nil
	}
	e := c.entry(tool, bench)
	e.ffMu.Lock()
	defer e.ffMu.Unlock()
	if e.ff == nil || e.ffQuantum != quantum || e.ff.noDecode != noDecode {
		e.ff = newFFLadder(quantum, noDecode, &c.ffHits, &c.ffBuilds)
		e.ffQuantum = quantum
	}
	return e.ff
}

// FFStats reports the matrix-wide functional fast-forward ladder
// activity: window entries seeded from a memoized rung vs. rung
// captures built. The telemetry snapshot polls it as a lazy source.
func (c *GoldenCache) FFStats() (hits, builds uint64) {
	return c.ffHits.Load(), c.ffBuilds.Load()
}

// rungCycles projects a ladder onto its capture cycles — the part of a
// rung that identifies the replay trajectory it induces.
func rungCycles(rungs []LadderRung) []uint64 {
	out := make([]uint64, len(rungs))
	for i, r := range rungs {
		out[i] = r.Cycle
	}
	return out
}

// scheduledRun is one injection run of the flattened matrix queue.
type scheduledRun struct {
	spec int // index into the specs slice
	mask int // index into that spec's mask slice
	// verify is the slot index of a prune-verify run (simulated only to
	// cross-check a pruned verdict, stored outside the records), or -1
	// for a normal run.
	verify int
	// wverify is the slot index of a window-verify run (a windowed mask
	// re-simulated fully cycle-accurately, stored outside the records),
	// or -1 for a normal run.
	wverify int
}

// campaignPrep is the per-campaign state resolved before dispatch.
type campaignPrep struct {
	golden GoldenInfo
	rungs  []LadderRung
	plan   *prune.Plan
	// ff is the row's functional fast-forward rung ladder (nil when
	// windowing is off or the ladder is disabled).
	ff *ffLadder
}

// maskWindow restricts the scheduler to the half-open mask index range
// [lo, hi) of one spec — the shard executor's view of a campaign. The
// spec still carries the full mask set, so plan-time artifacts whose
// placement depends on the whole campaign (checkpoint positions, prune
// plans, mask validation) are computed exactly as a single-node run
// computes them; only queueing and record fill-in are windowed.
type maskWindow struct{ lo, hi int }

// runMatrix is the scheduler core behind RunConfig and RunShard: it
// executes the materialized cells of cfg as one flattened work queue on
// a single shared worker pool of cfg.Workers, so short campaigns never
// serialize behind long ones. Results are returned in spec order with
// records in mask order, byte-identical across worker counts: golden
// references, checkpoint rungs and prune profiles are memoized per
// {tool, benchmark} row in cache and shared across the row's structures.
//
// On a worker error the pool cancels promptly — in-flight runs finish,
// queued runs are abandoned — and the error of the earliest queued run
// that failed is returned. Each run executes behind a containment
// boundary: a panic escaping the simulator or the fault-arming path is
// converted into that run's error (surfaced through the same
// deterministic first-error ordering) instead of aborting the process,
// and masks are validated against structure geometry before anything is
// queued.
//
// windows, when non-nil, holds one mask window per spec and limits
// simulation and record fill-in to the windowed masks: out-of-window
// records stay zero, plan-settled replicated masks are left to the merge
// layer (their representative may live in another window), and
// prune-verify samples only masks whose comparison record exists in the
// window. The per-spec prune plans are returned alongside the results so
// shard executors can report per-mask provenance.
func runMatrix(cfg CampaignConfig, specs []CampaignSpec, att Attach, cache *GoldenCache, windows []maskWindow) ([]*CampaignResult, []*prune.Plan, error) {
	if windows != nil {
		if len(windows) != len(specs) {
			return nil, nil, fmt.Errorf("core: %d mask windows for %d specs", len(windows), len(specs))
		}
		for i, w := range windows {
			if w.lo < 0 || w.hi > len(specs[i].Masks) || w.lo > w.hi {
				return nil, nil, fmt.Errorf("core: spec %d: mask window [%d,%d) outside [0,%d)", i, w.lo, w.hi, len(specs[i].Masks))
			}
		}
	}
	inWindow := func(spec, m int) bool {
		return windows == nil || (m >= windows[spec].lo && m < windows[spec].hi)
	}

	// Campaign keys label journal lines, telemetry rows and spans alike.
	keys := make([]string, len(specs))
	for i, spec := range specs {
		keys[i] = fault.CampaignKey(spec.Tool, spec.Benchmark, spec.Structure)
	}

	// Span tracing: the matrix is one campaign span; all golden-derived
	// preparation (reference runs, ladders, prune profiles, commit
	// signatures) is covered by one "golden" phase child, and each
	// campaign gets a cell span the run spans parent on.
	tr := att.Tracer
	var matrixSpan, goldenSpan *telemetry.ActiveSpan
	if tr != nil {
		matrixSpan = tr.Begin(telemetry.SpanCampaign, "matrix", att.TraceParent)
		goldenSpan = tr.Begin(telemetry.SpanPhase, "golden", matrixSpan.ID())
	}

	preps := make([]campaignPrep, len(specs))
	for i, spec := range specs {
		g, err := cache.Golden(spec.Tool, spec.Benchmark, spec.Factory)
		if err != nil {
			return nil, nil, err
		}
		g.Tool, g.Benchmark, g.Structure = spec.Tool, spec.Benchmark, spec.Structure
		preps[i].golden = g
	}

	// Fail malformed masks at plan time, before anything simulates:
	// arming a fault outside its structure's geometry panics deep inside
	// the bitarray, so a typo in a hand-edited mask file must be named up
	// front (mask ID and site) rather than surface as a contained panic
	// halfway through a long campaign. Geometry comes from the memoized
	// golden machine.
	for i := range specs {
		spec := &specs[i]
		var geomErr error
		geom := func(structure string) (int, int, bool) {
			entries, bits, ok, err := cache.Geometry(spec.Tool, spec.Benchmark, spec.Factory, structure)
			if err != nil {
				geomErr = err
				return 0, 0, false
			}
			return entries, bits, ok
		}
		for _, m := range spec.Masks {
			if err := m.ValidateSites(geom); err != nil {
				if geomErr != nil {
					return nil, nil, geomErr
				}
				return nil, nil, fmt.Errorf("core: campaign %s: %v", keys[i], err)
			}
		}
	}

	// Resolve the restore points once per {tool, benchmark} row and share
	// them across the row's structures; every run still decides
	// individually which rung (if any) its earliest fault permits. With a
	// ladder (K >= 2) the rungs sit at fixed fractions of the golden run
	// and are memoized in the cache; the legacy single checkpoint is
	// placed just before the earliest fault of the row's
	// checkpoint-enabled campaigns and wrapped as a one-rung ladder.
	earliest := make(map[goldenKey]uint64)
	for _, spec := range specs {
		if !spec.UseCheckpoint {
			continue
		}
		key := goldenKey{spec.Tool, spec.Benchmark}
		e, ok := earliest[key]
		if !ok {
			e = ^uint64(0)
		}
		for _, m := range spec.Masks {
			if c := minSiteCycle(m); c < e {
				e = c
			}
		}
		earliest[key] = e
	}
	rows := make(map[goldenKey][]LadderRung)
	for i, spec := range specs {
		if !spec.UseCheckpoint {
			continue
		}
		key := goldenKey{spec.Tool, spec.Benchmark}
		rungs, done := rows[key]
		if !done {
			if cfg.CheckpointLadder >= 2 {
				var err error
				rungs, err = cache.Ladder(key.tool, key.bench, spec.Factory, cfg.CheckpointLadder)
				if err != nil {
					return nil, nil, err
				}
			} else if cp, cpCycle := makeCheckpoint(spec.Factory, preps[i].golden, earliest[key]); cp != nil {
				rungs = []LadderRung{{State: cp, Cycle: cpCycle}}
			}
			rows[key] = rungs
		}
		preps[i].rungs = rungs
	}

	// Liveness pruning: one profiled fault-free replay per row trajectory
	// (boot plus one per rung) classifies provably-dead masks Masked and
	// collapses interval-equivalent masks at plan time, before anything is
	// queued.
	pruneOn := cfg.Prune || cfg.Exhaustive || cfg.PruneVerify > 0
	if pruneOn {
		type rowKey struct {
			key   goldenKey
			rungs int // rows with and without restores profile separately
		}
		profiled := make(map[rowKey][]prune.Profiles)
		structures := maskStructures(specs)
		for i := range specs {
			spec := &specs[i]
			key := rowKey{goldenKey{spec.Tool, spec.Benchmark}, len(preps[i].rungs)}
			profiles, done := profiled[key]
			if !done {
				// The cache memoizes the profiled replays per {rungs,
				// structures}, so a worker re-planning the same campaign
				// for every shard profiles the row once, not once per shard.
				var err error
				profiles, err = cache.Profiles(spec.Tool, spec.Benchmark, spec.Factory, preps[i].rungs, structures)
				if err != nil {
					return nil, nil, err
				}
				profiled[key] = profiles
			}
			preps[i].plan, _ = planMasks(spec, preps[i].rungs, profiles)
		}
	}

	// Divergence provenance: resolve the golden commit-stream signature
	// once per {tool, benchmark} row; the row's cells share one replay.
	dsink := att.Divergence
	var sigs []*divergence.Signature
	if dsink != nil {
		sigs = make([]*divergence.Signature, len(specs))
		for i, spec := range specs {
			sig, err := cache.CommitSignature(spec.Tool, spec.Benchmark, spec.Factory)
			if err != nil {
				return nil, nil, err
			}
			sigs[i] = sig
		}
	}

	var cellSpans []*telemetry.ActiveSpan
	if tr != nil {
		goldenSpan.End()
		cellSpans = make([]*telemetry.ActiveSpan, len(specs))
		for i := range specs {
			cellSpans[i] = tr.Begin(telemetry.SpanCell, keys[i], matrixSpan.ID())
		}
	}

	// Resume: index the journal's acknowledged runs by {campaign, mask}.
	// The queue fill below consults it after the prune plan — plans are
	// regenerated deterministically, so a journaled mask the plan now
	// settles without simulation stays with the plan's verdict.
	jnl := att.Journal
	var journaled map[string]map[int]*fault.JournalEntry
	if att.Resume && jnl != nil {
		past := jnl.Entries()
		journaled = make(map[string]map[int]*fault.JournalEntry)
		for k := range past {
			e := &past[k]
			byMask := journaled[e.Campaign]
			if byMask == nil {
				byMask = make(map[int]*fault.JournalEntry)
				journaled[e.Campaign] = byMask
			}
			byMask[e.MaskID] = e
		}
	}
	type resumedRun struct {
		spec  int
		entry *fault.JournalEntry
		rec   LogRecord
	}
	var resumed []resumedRun

	// Detail-window policy: one shared config for the real runs, plus
	// the no-exit variant the window-verify re-runs use to stay
	// cycle-accurate from the same window entry.
	var win, winNoExit *windowConfig
	if cfg.DetailWindow || cfg.WindowVerify > 0 {
		win = &windowConfig{pre: cfg.WindowPre, post: cfg.WindowPost, noDecode: cfg.NoDecodeCache}
		winNoExit = &windowConfig{pre: cfg.WindowPre, post: cfg.WindowPost, noDecode: cfg.NoDecodeCache, noExit: true}
		// Resolve the functional fast-forward rung ladder once per row;
		// the rungs themselves are captured lazily on the run path.
		if cfg.FFRungs >= 0 {
			n := cfg.FFRungs
			if n == 0 {
				n = defaultFFRungs
			}
			for i := range specs {
				preps[i].ff = cache.FFLadder(specs[i].Tool, specs[i].Benchmark,
					preps[i].golden, n, cfg.NoDecodeCache)
			}
		}
	}

	// Flatten every injection run into one shared queue, spec-major and
	// mask-minor, skipping masks the plan settled without simulation and
	// masks the journal already holds a completed record for. The
	// prune-verify and window-verify samples ride on the same queue as
	// extra runs whose records land in side tables, never in the
	// results.
	records := make([][]LogRecord, len(specs))
	verifyIdx := make([][]int, len(specs))
	verifyRecs := make([][]LogRecord, len(specs))
	wverifyIdx := make([][]int, len(specs))
	wverifyRecs := make([][]LogRecord, len(specs))
	var queue []scheduledRun
	totalMasks := 0
	adaptiveOn := cfg.StopMargin > 0 && windows == nil
	simOrders := make([][]int, len(specs))
	for i, spec := range specs {
		records[i] = make([]LogRecord, len(spec.Masks))
		plan := preps[i].plan
		var simIdx []int // masks this spec actually simulates
		for m := range spec.Masks {
			if !inWindow(i, m) {
				continue
			}
			totalMasks++
			if plan != nil && plan.Decisions[m].Action != prune.Simulate {
				continue
			}
			if adaptiveOn {
				// The cell's simulation order includes journaled masks —
				// real and stopped alike — so positions (and therefore
				// evaluation boundaries) are identical across resumes.
				simOrders[i] = append(simOrders[i], spec.Masks[m].ID)
			}
			if e := journaled[keys[i]][spec.Masks[m].ID]; e != nil {
				var rec LogRecord
				if err := json.Unmarshal(e.Record, &rec); err != nil {
					return nil, nil, fmt.Errorf("core: journal record for %s mask %d: %w", e.Campaign, e.MaskID, err)
				}
				if !reflect.DeepEqual(rec.Sites, spec.Masks[m].Sites) {
					return nil, nil, fmt.Errorf("core: journal record for %s mask %d was taken with different fault sites — stale journal for this mask set", e.Campaign, e.MaskID)
				}
				records[i][m] = rec
				resumed = append(resumed, resumedRun{spec: i, entry: e, rec: rec})
				continue
			}
			simIdx = append(simIdx, m)
			queue = append(queue, scheduledRun{spec: i, mask: m, verify: -1, wverify: -1})
		}
		if cfg.PruneVerify > 0 {
			// Windowed: verify only masks whose planned verdict this window
			// can reproduce — a dead mask in the window, or a replicated
			// mask whose representative's record is simulated here too.
			for _, m := range sampleVerify(plan, cfg.PruneVerify) {
				if !inWindow(i, m) {
					continue
				}
				if d := plan.Decisions[m]; d.Action == prune.Replicate && !inWindow(i, d.Rep) {
					continue
				}
				verifyIdx[i] = append(verifyIdx[i], m)
			}
			verifyRecs[i] = make([]LogRecord, len(verifyIdx[i]))
			for j, m := range verifyIdx[i] {
				queue = append(queue, scheduledRun{spec: i, mask: m, verify: j, wverify: -1})
			}
		}
		if cfg.WindowVerify > 0 {
			wverifyIdx[i] = sampleWindowVerify(simIdx, cfg.WindowVerify)
			wverifyRecs[i] = make([]LogRecord, len(wverifyIdx[i]))
			for j, m := range wverifyIdx[i] {
				queue = append(queue, scheduledRun{spec: i, mask: m, verify: -1, wverify: j})
			}
		}
	}

	// Sequential-confidence early stopping: one stopper per cell over its
	// deterministic simulation order. Journaled completions are prefed
	// here (stopped provenance rows excluded — they are settled outcomes
	// of the previous process's stop decision, which this process
	// re-derives from the real completions alone), so a resumed campaign
	// re-evaluates the rule at the same boundaries over the same class
	// multisets and stops at the identical point.
	var stoppers []*cellStopper
	if adaptiveOn {
		stoppers = make([]*cellStopper, len(specs))
		for i := range specs {
			est, err := adaptive.New(adaptive.Config{
				Margin:     cfg.StopMargin,
				Confidence: cfg.StopConfidence,
				CheckEvery: cfg.StopCheckEvery,
				Classes:    ClassStrings(),
			})
			if err != nil {
				return nil, nil, err
			}
			stoppers[i] = newCellStopper(est, simOrders[i], cfg.StopCheckEvery)
		}
		for _, r := range resumed {
			if r.rec.Status == RunStopped.String() {
				continue
			}
			cls, _ := (Parser{}).Classify(r.rec)
			stoppers[r.spec].noteCompleted(r.rec.MaskID, string(cls))
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queue) {
		workers = len(queue)
	}

	// Telemetry: register every campaign row up front so the run path
	// never allocates or locks, and let the snapshot pull golden-cache
	// statistics live.
	tel := att.Telemetry
	var camps []*telemetry.CampaignStats
	if tel != nil {
		tel.SetGoldenSource(func() (uint64, uint64) {
			r, h := cache.Stats()
			return uint64(r), uint64(h) //nolint:gosec // counters are non-negative
		})
		tel.SetFFRungSource(cache.FFStats)
		tel.SetDecodeSource(interp.DecodeCacheStats)
		tel.Start(workers)
		// Queue accounting counts masks, not queue slots: pruned and
		// resumed masks complete at fill time (so queued == done holds),
		// and verify re-runs are invisible to telemetry.
		tel.AddQueued(totalMasks)
		camps = make([]*telemetry.CampaignStats, len(specs))
		for i, spec := range specs {
			camps[i] = tel.Campaign(keys[i], spec.Tool, spec.Benchmark, spec.Structure)
		}
		// Resumed runs completed in an earlier process; their events carry
		// the journaled trace provenance (so the trace sink reproduces the
		// uninterrupted trace byte-for-byte) but zero Wall and Resumed set,
		// keeping the throughput gauges about this process's work.
		for _, r := range resumed {
			spec := &specs[r.spec]
			cls, _ := (Parser{}).Classify(r.rec)
			tel.RunStarted()
			tel.RunDone(camps[r.spec], telemetry.RunEvent{
				Campaign:      keys[r.spec],
				Tool:          camps[r.spec].Tool,
				Benchmark:     spec.Benchmark,
				Structure:     spec.Structure,
				MaskID:        r.rec.MaskID,
				Sites:         r.rec.Sites,
				Status:        r.rec.Status,
				Class:         string(cls),
				Cycles:        r.rec.Cycles,
				Observed:      r.entry.Observed,
				FirstObsCycle: r.entry.FirstObsCycle,
				EarlyStop:     r.entry.EarlyStop,
				Resumed:       true,
				Stopped:       r.rec.Status == RunStopped.String(),
				Weight:        r.rec.Weight,
			})
		}
	}
	// Resumed masks get divergence records rebuilt from the journal's
	// provenance: outcome and observation survive, the commit-stream
	// verdict and footprint do not (the run happened in another process),
	// so the rows are flagged Resumed rather than byte-compared against
	// an uninterrupted campaign's.
	if dsink != nil {
		for _, r := range resumed {
			d := divergenceRecord(keys[r.spec], r.rec, nil)
			d.Observed = r.entry.Observed
			d.FirstObsCycle = r.entry.FirstObsCycle
			d.Resumed = true
			d.Derive()
			dsink.Add(d)
		}
	}

	var (
		mu          sync.Mutex
		next        int
		head        int
		stop        bool
		firstErr    error
		firstErrRun = -1
		wg          sync.WaitGroup
	)
	var cond *sync.Cond
	var taken []bool
	if adaptiveOn {
		cond = sync.NewCond(&mu)
		taken = make([]bool, len(queue))
	}
	fail := func(run int, err error) {
		mu.Lock()
		if firstErrRun < 0 || run < firstErrRun {
			firstErrRun, firstErr = run, err
		}
		stop = true
		if cond != nil {
			cond.Broadcast()
		}
		mu.Unlock()
	}
	// takeNext hands a worker its next queue index. The fixed-budget path
	// is the original O(1) cursor. With stoppers armed, dispatch scans
	// for the first untaken entry whose mask sits below its cell's
	// current evaluation boundary — dispatching past the boundary would
	// waste (and worse, make nondeterministic) runs the boundary may
	// cancel. Entries a stop decision cancelled are consumed without
	// dispatch; verify re-runs are never gated (they cross-check settled
	// verdicts, not the estimator's). A worker that finds only gated
	// entries blocks until a completion advances a boundary or a failure
	// stops the pool.
	takeNext := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !adaptiveOn {
			if stop || next >= len(queue) {
				return 0, false
			}
			i := next
			next++
			return i, true
		}
		for {
			if stop {
				return 0, false
			}
			for head < len(queue) && taken[head] {
				head++
			}
			gated := false
			for j := head; j < len(queue); j++ {
				if taken[j] {
					continue
				}
				r := queue[j]
				if r.verify >= 0 || r.wverify >= 0 {
					taken[j] = true
					return j, true
				}
				id := specs[r.spec].Masks[r.mask].ID
				s := stoppers[r.spec]
				if s.cancelled(id) {
					taken[j] = true
					continue
				}
				if !s.dispatchable(id) {
					gated = true
					continue
				}
				taken[j] = true
				return j, true
			}
			if !gated {
				return 0, false
			}
			cond.Wait()
		}
	}
	// noteErr accounts a per-run failure before the deterministic
	// first-error selection; a contained panic bumps the telemetry
	// counter even when a different run's error ultimately wins.
	noteErr := func(run int, err error) {
		var pe *PanicError
		if tel != nil && errors.As(err, &pe) {
			tel.PanicContained()
		}
		fail(run, err)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := takeNext()
				if !ok {
					return
				}
				r := queue[i]
				spec := &specs[r.spec]
				prep := &preps[r.spec]
				if r.verify >= 0 {
					// Prune-verify re-run: simulate a pruned mask for the
					// differential check, bypassing telemetry, the journal
					// and the results entirely. It runs under the same
					// window policy as the real runs — the check is about
					// the prune verdict, not the execution tier.
					rec, err := runGuarded(spec.Factory, prep.rungs, spec.Masks[r.mask],
						prep.golden, spec.TimeoutFactor, !spec.DisableEarlyStop, win, prep.ff, cfg.RunWallLimit, nil)
					if err != nil {
						noteErr(i, err)
						return
					}
					verifyRecs[r.spec][r.verify] = rec
					continue
				}
				if r.wverify >= 0 {
					// Window-verify re-run: simulate a windowed mask fully
					// cycle-accurately from the same window entry, bypassing
					// telemetry, the journal and the results entirely.
					rec, err := runGuarded(spec.Factory, prep.rungs, spec.Masks[r.mask],
						prep.golden, spec.TimeoutFactor, !spec.DisableEarlyStop, winNoExit, prep.ff, cfg.RunWallLimit, nil)
					if err != nil {
						noteErr(i, err)
						return
					}
					wverifyRecs[r.spec][r.wverify] = rec
					continue
				}
				var stats *runStats
				var runStart time.Time
				if tel != nil || jnl != nil || dsink != nil || tr != nil {
					stats = new(runStats)
				}
				if dsink != nil && sigs[r.spec] != nil {
					stats.div = divergence.NewProbe(sigs[r.spec])
				}
				if tel != nil {
					tel.RunStarted()
				}
				if tel != nil || tr != nil {
					runStart = time.Now()
				}
				rec, err := runGuarded(spec.Factory, prep.rungs, spec.Masks[r.mask],
					prep.golden, spec.TimeoutFactor, !spec.DisableEarlyStop, win, prep.ff, cfg.RunWallLimit, stats)
				if err != nil {
					noteErr(i, err)
					return
				}
				records[r.spec][r.mask] = rec
				if adaptiveOn {
					// Feed the cell's stopper and wake gated workers: the
					// contiguous prefix may have extended past a boundary,
					// releasing the next chunk — or deciding the cell.
					cls, _ := (Parser{}).Classify(rec)
					mu.Lock()
					stoppers[r.spec].noteCompleted(rec.MaskID, string(cls))
					cond.Broadcast()
					mu.Unlock()
				}
				if jnl != nil {
					// Durability point: the record is not acknowledged until
					// its journal line is fsync'd, so a crash can only lose
					// runs that a resume will redo, never corrupt one.
					e, jerr := journalEntry(keys[r.spec], rec, stats)
					if jerr == nil {
						jerr = jnl.Append(e)
					}
					if jerr != nil {
						fail(i, jerr)
						return
					}
				}
				if dsink != nil {
					dsink.Add(divergenceRecord(keys[r.spec], rec, stats))
				}
				if tel != nil {
					cls, _ := (Parser{}).Classify(rec)
					early := ""
					if rec.Status == RunEarlyMasked.String() {
						early = stats.earlyStopReason()
					}
					diverged := false
					if stats.div != nil {
						diverged, _, _ = stats.div.Diverged()
					}
					tel.RunDone(camps[r.spec], telemetry.RunEvent{
						Campaign:       keys[r.spec],
						Tool:           camps[r.spec].Tool,
						Benchmark:      spec.Benchmark,
						Structure:      spec.Structure,
						MaskID:         rec.MaskID,
						Sites:          rec.Sites,
						Status:         rec.Status,
						Class:          string(cls),
						Cycles:         rec.Cycles,
						Wall:           time.Since(runStart),
						Observed:       stats.observed,
						FirstObsCycle:  stats.firstObs,
						EarlyStop:      early,
						WatchedReads:   stats.reads,
						WatchedWrites:  stats.writes,
						ObservedReads:  stats.obsReads,
						ObservedWrites: stats.obsWrites,
						LadderRestored: stats.restored,
						RungCycle:      stats.rungCycle,
						Windowed:       stats.windowed,
						WindowEntered:  stats.windowEntered,
						WindowExited:   stats.windowExited,
						FastSteps:      stats.fastSteps,
						DetailCycles:   stats.detailCycles,
						Diverged:       diverged,
						Weight:         rec.Weight,
					})
				}
				if tr != nil {
					emitRunSpans(tr, cellSpans[r.spec].ID(), att.SpanWorker, keys[r.spec], rec, stats, runStart)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}

	// Settle the masks the stop decisions cancelled: every in-window mask
	// past the cell's cutoff — queued, dead-pruned or replicated alike —
	// becomes a synthetic stopped-early provenance row. Settling the
	// whole tail uniformly (rather than only the queued entries) is what
	// keeps single-node and distributed campaigns byte-identical: a
	// coordinator cancelling a shard cannot know the shard's plan
	// actions. Rows a resumed journal already settled keep their
	// journaled record and get no duplicate telemetry or journal line.
	if adaptiveOn {
		for i := range specs {
			st := stoppers[i]
			if st == nil {
				continue
			}
			if tel != nil {
				if st.stopped() {
					tel.CellStopped(st.finalMargin)
				} else if st.est.N() > 0 {
					tel.ObserveCellMargin(st.est.EffectiveMargin())
				}
			}
			if !st.stopped() {
				continue
			}
			spec := &specs[i]
			for m := range spec.Masks {
				if !inWindow(i, m) || !st.cancelled(spec.Masks[m].ID) {
					continue
				}
				if records[i][m].Status != "" {
					continue // resumed stopped row, already accounted
				}
				rec := stoppedRecord(spec.Masks[m])
				records[i][m] = rec
				if jnl != nil {
					e, jerr := journalEntry(keys[i], rec, nil)
					if jerr == nil {
						e.StoppedEarly = true
						jerr = jnl.Append(e)
					}
					if jerr != nil {
						return nil, nil, jerr
					}
				}
				if dsink != nil {
					dsink.Add(divergenceRecord(keys[i], rec, nil))
				}
				if tel != nil {
					cls, _ := (Parser{}).Classify(rec)
					tel.RunStarted()
					tel.RunDone(camps[i], telemetry.RunEvent{
						Campaign:  keys[i],
						Tool:      camps[i].Tool,
						Benchmark: spec.Benchmark,
						Structure: spec.Structure,
						MaskID:    rec.MaskID,
						Sites:     rec.Sites,
						Status:    rec.Status,
						Class:     string(cls),
						Stopped:   true,
						Weight:    rec.Weight,
					})
				}
			}
		}
	}

	// Fill the records the plan settled without simulation: dead masks get
	// the synthetic pruned record, collapsed masks a copy of their
	// representative's verdict. Telemetry sees one started/done pair per
	// pruned mask (keeping queued == done) with the prune provenance on
	// the event; the collector excludes them from throughput gauges.
	for i := range specs {
		plan := preps[i].plan
		if plan == nil {
			continue
		}
		spec := &specs[i]
		for m, d := range plan.Decisions {
			if !inWindow(i, m) {
				continue
			}
			if adaptiveOn && stoppers[i].cancelled(spec.Masks[m].ID) {
				continue // settled as a stopped-early row above
			}
			var pruned string
			repMask := -1
			switch d.Action {
			case prune.Simulate:
				continue
			case prune.Dead:
				records[i][m] = prunedRecord(spec.Masks[m], preps[i].golden)
				pruned = "dead"
			case prune.Replicate:
				if windows != nil {
					// The representative may live in another shard's window;
					// replicated rows are resolved at merge time from the
					// representative's completed record, reproducing exactly
					// this copy-and-restamp. Skipping the local fill (even
					// when the representative happens to be in-window) keeps
					// every shard's treatment of replicated rows identical.
					continue
				}
				rec := records[i][d.Rep]
				rec.MaskID = spec.Masks[m].ID
				rec.Sites = spec.Masks[m].Sites
				rec.Weight = spec.Masks[m].Weight
				records[i][m] = rec
				pruned = "replicated"
				repMask = spec.Masks[d.Rep].ID
			}
			if dsink != nil {
				d := divergenceRecord(keys[i], records[i][m], nil)
				d.Pruned = pruned
				dsink.Add(d)
			}
			if tel != nil {
				rec := records[i][m]
				cls, _ := (Parser{}).Classify(rec)
				tel.RunStarted()
				tel.RunDone(camps[i], telemetry.RunEvent{
					Campaign:  keys[i],
					Tool:      camps[i].Tool,
					Benchmark: spec.Benchmark,
					Structure: spec.Structure,
					MaskID:    rec.MaskID,
					Sites:     rec.Sites,
					Status:    rec.Status,
					Class:     string(cls),
					Cycles:    rec.Cycles,
					Pruned:    pruned,
					RepMask:   repMask,
					Weight:    rec.Weight,
				})
			}
		}
	}

	// The differential guard of -prune-verify: every sampled pruned mask
	// was also simulated for real; its class must agree with the verdict
	// the plan assigned. (Classes, not raw statuses: a dead-pruned run
	// reports "pruned" where the simulation reports "early-masked" or
	// "completed" — all Masked.)
	for i := range specs {
		for j, m := range verifyIdx[i] {
			// A replicated mask's planned verdict is its representative's
			// class; comparing against the representative's record directly
			// keeps the check meaningful in windowed mode, where replicated
			// rows are filled at merge time rather than here.
			ri := m
			if d := preps[i].plan.Decisions[m]; d.Action == prune.Replicate {
				ri = d.Rep
			}
			if records[i][ri].Status == RunStopped.String() || verifyRecs[i][j].Status == "" {
				// The stop decision settled the comparison target (or
				// cancelled the verify run before it dispatched); there is
				// no planned verdict to check against.
				continue
			}
			planned, _ := (Parser{}).Classify(records[i][ri])
			simulated, _ := (Parser{}).Classify(verifyRecs[i][j])
			if planned != simulated {
				d := preps[i].plan.Decisions[m]
				return nil, nil, fmt.Errorf(
					"core: prune-verify mismatch on %s mask %d (%s, reason %q): pruned class %s, simulated class %s (status %s)",
					keys[i],
					specs[i].Masks[m].ID, d.Action, d.Reason, planned, simulated, verifyRecs[i][j].Status)
			}
		}
	}

	// The differential guard of -window-verify: every sampled windowed
	// mask was also re-simulated fully cycle-accurately from the same
	// window entry; its outcome class must agree with the windowed
	// record's. A disagreement indicts the window-exit proof (settle,
	// drain or residual-safety) or the functional tail.
	for i := range specs {
		for j, m := range wverifyIdx[i] {
			if records[i][m].Status == RunStopped.String() || wverifyRecs[i][j].Status == "" {
				continue // stop decision settled the windowed record
			}
			windowed, _ := (Parser{}).Classify(records[i][m])
			full, _ := (Parser{}).Classify(wverifyRecs[i][j])
			if windowed != full {
				return nil, nil, fmt.Errorf(
					"core: window-verify mismatch on %s mask %d: windowed class %s (status %s), cycle-accurate class %s (status %s)",
					keys[i],
					specs[i].Masks[m].ID, windowed, records[i][m].Status, full, wverifyRecs[i][j].Status)
			}
		}
	}

	if tr != nil {
		for i := range specs {
			key := keys[i]
			cellSpans[i].End(func(sp *telemetry.Span) { sp.Campaign = key })
		}
		matrixSpan.End()
	}

	results := make([]*CampaignResult, len(specs))
	plans := make([]*prune.Plan, len(specs))
	for i := range specs {
		results[i] = &CampaignResult{Golden: preps[i].golden, Records: records[i]}
		plans[i] = preps[i].plan
		if adaptiveOn && stoppers[i] != nil {
			st := stoppers[i]
			info := &AdaptiveInfo{
				StoppedEarly:    st.stopped(),
				SimulatedRuns:   st.est.N(),
				PlannedRuns:     len(st.simOrder),
				EffectiveMargin: st.est.EffectiveMargin(),
				Confidence:      cfg.StopConfidence,
			}
			if st.stopped() {
				info.SimulatedRuns = st.stoppedAt
				info.EffectiveMargin = st.finalMargin
			}
			results[i].Adaptive = info
		}
		if specs[i].Exhaustive {
			// An exhaustive cell enumerated its collapsed mask space; its
			// estimate is a census, not a sample: complete, zero margin.
			sim := len(specs[i].Masks)
			if preps[i].plan != nil {
				sim = preps[i].plan.Simulated
			}
			results[i].Adaptive = &AdaptiveInfo{
				Complete:      true,
				SimulatedRuns: sim,
				PlannedRuns:   len(specs[i].Masks),
			}
		}
	}
	return results, plans, nil
}

// divergenceRecord builds the provenance row of one completed mask.
// stats is nil for rows nothing was simulated for in this process
// (pruned, resumed); they carry the outcome but no footprint or
// divergence verdict.
func divergenceRecord(campaign string, rec LogRecord, stats *runStats) divergence.Record {
	cls, _ := (Parser{}).Classify(rec)
	d := divergence.Record{
		Campaign: campaign,
		MaskID:   rec.MaskID,
		Status:   rec.Status,
		Class:    string(cls),
		Cycles:   rec.Cycles,
	}
	if stats != nil {
		d.Observed = stats.observed
		d.FirstObsCycle = stats.firstObs
		d.FaultTouches = stats.touches
		d.LastTouchCycle = stats.lastTouch
		d.CorruptStructures = stats.corrupt
		if stats.div != nil {
			d.Diverged, d.DivergeCycle, d.DivergeIndex = stats.div.Diverged()
		}
	}
	d.Derive()
	return d
}

// emitRunSpans emits the span of one injection run plus its execution
// phases, synthesized from the per-run stats: fast-forward (functional
// window entry), window (the cycle-accurate section — the whole run
// when no window applies is not a phase of its own), and drain (the
// functional tail after window exit).
func emitRunSpans(tr *telemetry.Tracer, parent, worker, campaign string, rec LogRecord, stats *runStats, start time.Time) {
	mask := rec.MaskID
	run := telemetry.Span{
		SpanID:      tr.NewSpanID(),
		ParentID:    parent,
		Kind:        telemetry.SpanRun,
		Name:        fmt.Sprintf("mask-%d", rec.MaskID),
		Campaign:    campaign,
		MaskID:      &mask,
		Worker:      worker,
		StartUnixNS: start.UnixNano(),
		EndUnixNS:   time.Now().UnixNano(),
		Cycles:      rec.Cycles,
	}
	tr.Emit(run)
	t := start
	phase := func(name string, wall time.Duration, cycles, steps uint64) {
		tr.Emit(telemetry.Span{
			SpanID:      tr.NewSpanID(),
			ParentID:    run.SpanID,
			Kind:        telemetry.SpanPhase,
			Name:        name,
			Campaign:    campaign,
			MaskID:      &mask,
			Worker:      worker,
			StartUnixNS: t.UnixNano(),
			EndUnixNS:   t.Add(wall).UnixNano(),
			Cycles:      cycles,
			Steps:       steps,
		})
		t = t.Add(wall)
	}
	if stats.windowEntered {
		phase("fast-forward", stats.entryWall, 0, stats.entrySteps)
	}
	if stats.windowed {
		phase("window", stats.detailWall, stats.detailCycles, 0)
	}
	if stats.windowExited {
		phase("drain", stats.tailWall, 0, stats.tailSteps)
	}
}

// sampleWindowVerify picks up to n evenly spaced masks from the
// simulated masks of one spec — the window-verify sample. Sampling the
// queued masks (rather than all masks) keeps the guard about runs that
// actually executed under the window policy.
func sampleWindowVerify(sim []int, n int) []int {
	if n <= 0 || len(sim) == 0 {
		return nil
	}
	if len(sim) <= n {
		return append([]int(nil), sim...)
	}
	out := make([]int, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, sim[j*len(sim)/n])
	}
	return out
}

// makeCheckpoint captures the fault-free prefix of a row on a drained
// machine: the target sits at one fifth of the golden run, pushed later
// when every checkpoint-enabled fault of the row starts later still, and
// capped at four fifths.
func makeCheckpoint(f Factory, golden GoldenInfo, earliest uint64) (any, uint64) {
	// Leave room for the drain overshoot: the machine settles some
	// cycles past the target, and the checkpoint must still precede
	// the earliest fault.
	const drainMargin = 2000
	target := golden.Cycles / 5
	if earliest != ^uint64(0) && earliest > drainMargin && earliest-drainMargin > target {
		target = earliest - drainMargin
	}
	if limit := golden.Cycles * 4 / 5; target > limit {
		target = limit
	}
	base, ok := f().(Checkpointer)
	if !ok || target == 0 {
		return nil, 0
	}
	reached, finished, err := base.RunTo(target)
	if err != nil || finished || reached >= earliest {
		return nil, 0
	}
	st, err := base.Checkpoint()
	if err != nil {
		return nil, 0
	}
	return st, reached
}
