package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bitarray"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/prune"
	"repro/internal/telemetry"
)

// ConfigSchemaVersion is the CampaignConfig format version this build
// writes and serves; the distributed protocol carries it so a worker
// from a newer build never misreads a coordinator's config (and vice
// versa).
//
// Version history:
//
//	1 — initial consolidated config (PR 5).
//	2 — detail-window fields (detail_window, window_pre_cycles,
//	    window_post_cycles, window_verify). A config that uses none of
//	    them is served as version 1, so legacy readers keep working.
//	3 — divergence-provenance recording (divergence). Served as the
//	    lowest version that can express the config, as before.
//	4 — functional-tier turbo knobs (ff_rungs, no_decode_cache). Both
//	    only tune how windowed runs execute — results are byte-identical
//	    across settings — so a config leaving them at zero is still
//	    served at the lowest version expressing it.
//	5 — adaptive campaign control (stop_margin, stop_confidence,
//	    stop_check_every, exhaustive, importance_sampling). As before, a
//	    config using none of them is served at the lowest version that
//	    expresses it.
const ConfigSchemaVersion = 5

// CampaignCell is one {tool, benchmark, structure} campaign of a
// config. Cells reference tools and benchmarks by name — a config is
// fully serializable, which is what lets the distributed coordinator
// hand the exact same description to remote workers that the local path
// consumes — and a Resolver materializes the simulator factories.
type CampaignCell struct {
	Tool      string `json:"tool"`
	Benchmark string `json:"benchmark"`
	Structure string `json:"structure"`
	// Injections overrides CampaignConfig.Injections for this cell
	// (0: inherit).
	Injections int `json:"injections,omitempty"`
	// Seed overrides CampaignConfig.Seed for this cell (0: inherit).
	Seed int64 `json:"seed,omitempty"`
	// Masks, when non-empty, is the explicit fault population of the
	// cell (e.g. loaded from a masks repository); Injections/Seed/Model
	// generation is skipped and LiveOnly remapping does not apply —
	// explicit masks are injected exactly as given.
	Masks []fault.Mask `json:"masks,omitempty"`
}

// CampaignConfig is the consolidated, validated description of an
// injection campaign matrix — the one public knob surface of the
// campaign engine. The same value drives local execution (RunConfig),
// shard execution on a remote worker (RunShard), the coordinator's
// planning and the figure harness; it serializes as JSON for the wire
// and for config files.
//
// Everything in a CampaignConfig is portable: process-local resources
// (golden caches, telemetry collectors, journals) attach separately via
// Attach, so shipping a config to another machine can never smuggle a
// dangling handle along.
type CampaignConfig struct {
	// SchemaVersion stamps the config format version; zero means
	// "current" on the way in and is stamped to ConfigSchemaVersion when
	// the config is served over the wire.
	SchemaVersion int `json:"schema_version,omitempty"`
	// Campaigns are the cells of the matrix.
	Campaigns []CampaignCell `json:"campaigns"`
	// Injections is the per-cell mask count when a cell has no explicit
	// Masks and no Injections override.
	Injections int `json:"injections,omitempty"`
	// Seed drives deterministic mask generation (cells may override).
	Seed int64 `json:"seed,omitempty"`
	// Model is the generated fault model ("transient", "intermittent",
	// "permanent"); empty means transient.
	Model string `json:"model,omitempty"`
	// LiveOnly remaps generated fault entries onto the entries live at
	// the end of the golden run (conditional vulnerability).
	LiveOnly bool `json:"live_only,omitempty"`
	// TimeoutFactor multiplies the fault-free cycle count to form the
	// per-run cycle limit; 0 means the paper's 3.
	TimeoutFactor uint64 `json:"timeout_factor,omitempty"`
	// DisableEarlyStop turns off the §III.B optimizations (ablation).
	DisableEarlyStop bool `json:"disable_early_stop,omitempty"`
	// UseCheckpoint shares each row's fault-free prefix via drained-
	// machine checkpoints.
	UseCheckpoint bool `json:"use_checkpoint,omitempty"`
	// Workers is the simulation worker-pool size of the executing
	// process — each distributed worker applies it locally; 0 means
	// GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Prune enables golden-run liveness pruning; PruneVerify
	// additionally simulates up to that many pruned masks per campaign
	// and fails on a class mismatch (implies Prune).
	Prune       bool `json:"prune,omitempty"`
	PruneVerify int  `json:"prune_verify,omitempty"`
	// CheckpointLadder is the number of evenly spaced restore rungs per
	// row (>= 2, with UseCheckpoint); 0 keeps the legacy single
	// checkpoint.
	CheckpointLadder int `json:"checkpoint_ladder,omitempty"`
	// RunWallLimit bounds the host wall-clock time of a single run
	// (serialized as nanoseconds); 0 is off.
	RunWallLimit time.Duration `json:"run_wall_limit_ns,omitempty"`
	// DetailWindow enables sampled execution: each run simulates
	// cycle-accurately only inside a detail window around its fault and
	// on the functional interpreter everywhere else. WindowPre and
	// WindowPost are the margins, in cycles, of cycle-accurate
	// simulation kept before the earliest fault arms and after the last
	// fault settles. WindowVerify re-simulates up to that many windowed
	// masks per campaign fully cycle-accurately from the same window
	// entry and fails on an outcome-class disagreement (implies
	// DetailWindow).
	DetailWindow bool   `json:"detail_window,omitempty"`
	WindowPre    uint64 `json:"window_pre_cycles,omitempty"`
	WindowPost   uint64 `json:"window_post_cycles,omitempty"`
	WindowVerify int    `json:"window_verify,omitempty"`
	// FFRungs sizes the functional fast-forward rung ladder window
	// entries resume from (per {tool, benchmark} row, memoized lazily):
	// 0 means the default ladder, negative disables it so every entry
	// fast-forwards from boot. NoDecodeCache forces every functional
	// dispatch through the slow byte-level decoder instead of the
	// per-image predecoded instruction cache. Both are pure performance
	// knobs for windowed execution — records, traces, journals and
	// divergence files are byte-identical across settings.
	FFRungs       int  `json:"ff_rungs,omitempty"`
	NoDecodeCache bool `json:"no_decode_cache,omitempty"`
	// Divergence enables provenance recording: every run is probed
	// against the golden commit-stream signature and a per-mask
	// divergence record (first architectural divergence, corruption
	// footprint, masking depth) is produced alongside the campaign logs.
	// In a distributed campaign the workers measure and the coordinator
	// assembles the single-node-identical record file.
	Divergence bool `json:"divergence,omitempty"`
	// StopMargin arms sequential-confidence early stopping: a cell stops
	// once every outcome-class proportion is estimated to ±StopMargin at
	// StopConfidence, evaluated every StopCheckEvery completed runs (0:
	// a default cadence) in the cell's deterministic simulation order.
	// Remaining masks are settled as stopped-early provenance rows, so
	// logs, traces and journals stay byte-stable and resumable. Zero
	// disables the rule; StopConfidence is required with it.
	StopMargin     float64 `json:"stop_margin,omitempty"`
	StopConfidence float64 `json:"stop_confidence,omitempty"`
	StopCheckEvery int     `json:"stop_check_every,omitempty"`
	// Exhaustive replaces sampling with the equivalence-class-collapsed
	// census of the whole single-bit transient fault population: one
	// cycle-mass-weighted representative mask per liveness interval per
	// (entry, bit), enumerated from the golden-run profile. Implies
	// Prune; the cell result is stamped complete with zero margin.
	// Mutually exclusive with explicit masks, generated-count sampling
	// knobs, live_only, importance_sampling and stop_margin.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// ImportanceSampling draws the generated masks preferentially from
	// the live portion of the fault population (golden-run liveness as
	// the importance distribution), carrying Horvitz–Thompson weights
	// that keep the reported class proportions unbiased. Mutually
	// exclusive with explicit masks, live_only and exhaustive.
	ImportanceSampling bool `json:"importance_sampling,omitempty"`
}

// usesWindow reports whether any detail-window field is in use — the
// schema-version-2 surface. Configs without it are served as version 1
// so legacy readers keep working.
func (c CampaignConfig) usesWindow() bool {
	return c.DetailWindow || c.WindowPre != 0 || c.WindowPost != 0 || c.WindowVerify != 0
}

// usesAdaptive reports whether any adaptive-control field is in use —
// the schema-version-5 surface.
func (c CampaignConfig) usesAdaptive() bool {
	return c.StopMargin != 0 || c.StopConfidence != 0 || c.StopCheckEvery != 0 ||
		c.Exhaustive || c.ImportanceSampling
}

// WireSchemaVersion is the schema version a zero-version config is
// stamped with when served over the wire: the lowest version that can
// express it.
func (c CampaignConfig) WireSchemaVersion() int {
	if c.usesAdaptive() {
		return 5
	}
	if c.FFRungs != 0 || c.NoDecodeCache {
		return 4
	}
	if c.Divergence {
		return 3
	}
	if c.usesWindow() {
		return 2
	}
	return 1
}

// Validate checks the config and names the offending field of the first
// problem, in the JSON spelling, so a CLI or protocol error message
// points at what to fix.
func (c CampaignConfig) Validate() error {
	bad := func(field, format string, args ...any) error {
		return fmt.Errorf("core: campaign config: %s: %s", field, fmt.Sprintf(format, args...))
	}
	if c.SchemaVersion > ConfigSchemaVersion {
		return bad("schema_version", "version %d is newer than this build understands (<= %d)", c.SchemaVersion, ConfigSchemaVersion)
	}
	if len(c.Campaigns) == 0 {
		return bad("campaigns", "empty — nothing to run")
	}
	if c.Injections < 0 {
		return bad("injections", "negative count %d", c.Injections)
	}
	if c.Model != "" {
		if _, err := fault.Model(c.Model).Kind(); err != nil {
			return bad("model", "unknown model %q", c.Model)
		}
	}
	if c.Workers < 0 {
		return bad("workers", "negative pool size %d", c.Workers)
	}
	if c.PruneVerify < 0 {
		return bad("prune_verify", "negative sample size %d", c.PruneVerify)
	}
	if c.CheckpointLadder < 0 || c.CheckpointLadder == 1 {
		return bad("checkpoint_ladder", "%d rungs (want 0, or >= 2)", c.CheckpointLadder)
	}
	if c.RunWallLimit < 0 {
		return bad("run_wall_limit_ns", "negative limit %d", c.RunWallLimit)
	}
	if c.WindowVerify < 0 {
		return bad("window_verify", "negative sample size %d", c.WindowVerify)
	}
	if !c.DetailWindow && c.WindowVerify == 0 && (c.WindowPre != 0 || c.WindowPost != 0) {
		return bad("detail_window", "window margins set but windowing is off")
	}
	if !c.DetailWindow && c.WindowVerify == 0 && c.FFRungs != 0 {
		return bad("ff_rungs", "fast-forward rungs set but windowing is off")
	}
	// Adaptive campaign control. The comparisons are NaN-safe: a NaN
	// margin or confidence fails the positive-range test and is rejected
	// rather than silently disabling the rule.
	if c.StopMargin != 0 && !(c.StopMargin > 0 && c.StopMargin < 1) {
		return bad("stop_margin", "margin %v outside (0, 1)", c.StopMargin)
	}
	if c.StopMargin > 0 {
		if _, err := fault.ZFor(c.StopConfidence); err != nil {
			return bad("stop_confidence", "confidence %v outside (0, 1) (required with stop_margin)", c.StopConfidence)
		}
	} else {
		if c.StopConfidence != 0 {
			return bad("stop_confidence", "set without stop_margin")
		}
		if c.StopCheckEvery != 0 {
			return bad("stop_check_every", "set without stop_margin")
		}
	}
	if c.StopCheckEvery < 0 {
		return bad("stop_check_every", "negative cadence %d", c.StopCheckEvery)
	}
	if c.Exhaustive {
		if c.StopMargin != 0 {
			return bad("exhaustive", "a census has nothing to stop early (unset stop_margin)")
		}
		if c.ImportanceSampling {
			return bad("exhaustive", "a census has nothing to sample (unset importance_sampling)")
		}
		if c.LiveOnly {
			return bad("exhaustive", "the census already enumerates liveness exactly (unset live_only)")
		}
		if c.model() != fault.ModelTransient {
			return bad("exhaustive", "the census covers transient faults only, not %q", c.Model)
		}
	}
	if c.ImportanceSampling {
		if c.LiveOnly {
			return bad("importance_sampling", "mutually exclusive with live_only")
		}
		if c.model() != fault.ModelTransient {
			return bad("importance_sampling", "covers transient faults only, not %q", c.Model)
		}
	}
	for i, cell := range c.Campaigns {
		field := func(name string) string { return fmt.Sprintf("campaigns[%d].%s", i, name) }
		if cell.Tool == "" {
			return bad(field("tool"), "empty")
		}
		if cell.Benchmark == "" {
			return bad(field("benchmark"), "empty")
		}
		if cell.Structure == "" {
			return bad(field("structure"), "empty")
		}
		if cell.Injections < 0 {
			return bad(field("injections"), "negative count %d", cell.Injections)
		}
		if cell.Seed < 0 {
			return bad(field("seed"), "negative seed %d", cell.Seed)
		}
		if (c.Exhaustive || c.ImportanceSampling) && len(cell.Masks) > 0 {
			knob := "exhaustive"
			if c.ImportanceSampling {
				knob = "importance_sampling"
			}
			return bad(field("masks"), "explicit masks are mutually exclusive with %s", knob)
		}
		// An exhaustive cell's population comes from the census, not an
		// injection count.
		if !c.Exhaustive && len(cell.Masks) == 0 && c.MaskCount(i) <= 0 {
			return bad(field("injections"), "no explicit masks and no injection count (set injections on the cell or the config)")
		}
		for j, m := range cell.Masks {
			for k, s := range m.Sites {
				if _, err := s.Model.Kind(); err != nil {
					return bad(fmt.Sprintf("campaigns[%d].masks[%d].sites[%d].model", i, j, k), "unknown model %q", s.Model)
				}
			}
		}
	}
	return nil
}

// MaskCount reports how many masks campaign cell i will run — the shard
// planner's unit of work. It needs no simulator: explicit masks count
// themselves, generated ones come from the configured injection counts.
func (c CampaignConfig) MaskCount(i int) int {
	cell := c.Campaigns[i]
	if len(cell.Masks) > 0 {
		return len(cell.Masks)
	}
	if cell.Injections > 0 {
		return cell.Injections
	}
	return c.Injections
}

// Keys returns the campaign key of every cell, in cell order — the
// labels of journal lines, telemetry rows and log files.
func (c CampaignConfig) Keys() []string {
	keys := make([]string, len(c.Campaigns))
	for i, cell := range c.Campaigns {
		keys[i] = fault.CampaignKey(cell.Tool, cell.Benchmark, cell.Structure)
	}
	return keys
}

func (c CampaignConfig) model() fault.Model {
	if c.Model == "" {
		return fault.ModelTransient
	}
	return fault.Model(c.Model)
}

func (c CampaignConfig) cellSeed(i int) int64 {
	if s := c.Campaigns[i].Seed; s != 0 {
		return s
	}
	return c.Seed
}

// Resolver materializes the simulator factory of a {tool, benchmark}
// pair named by a config cell. The core package defines only the shape:
// the sims wiring lives above core (cli.Resolve), and tests substitute
// fakes.
type Resolver func(tool, benchmark string) (Factory, error)

// Attach carries the process-local, non-serializable resources of a
// config run — exactly the parts a CampaignConfig deliberately cannot
// express.
type Attach struct {
	// Golden shares a golden-run memoizer across calls; nil uses a
	// private cache.
	Golden *GoldenCache
	// Telemetry receives the run-end event stream; nil costs nothing.
	Telemetry *telemetry.Collector
	// Journal receives one fsync'd line per completed run before the
	// worker moves on; verify re-runs and plan-settled (pruned) masks are
	// not journaled — the former never enter the results, the latter are
	// replayed from the deterministic plan. Resume loads completed masks
	// from it instead of re-simulating, leaving records and trace
	// byte-identical to an uninterrupted run. RunShard ignores both — in
	// a distributed campaign the coordinator owns the journal as the
	// exactly-once completion ledger.
	Journal *fault.Journal
	Resume  bool
	// Divergence receives the per-mask provenance records when the
	// config's Divergence knob is on; nil drops them.
	Divergence *divergence.Sink
	// Tracer emits campaign/cell/run/phase spans parented under
	// TraceParent; SpanWorker labels the emitting process on run and
	// phase spans.
	Tracer      *telemetry.Tracer
	TraceParent string
	SpanWorker  string
}

// buildSpec materializes the scheduler spec of cell i: the factory from
// the resolver, and the mask population either verbatim (explicit
// masks) or generated deterministically from {seed, model, injections}
// against the golden geometry. Two processes building the same cell of
// the same config produce identical masks — the root of the distributed
// path's byte-identity.
func (c CampaignConfig) buildSpec(i int, resolve Resolver, cache *GoldenCache) (CampaignSpec, error) {
	cell := c.Campaigns[i]
	factory, err := resolve(cell.Tool, cell.Benchmark)
	if err != nil {
		return CampaignSpec{}, err
	}
	masks := cell.Masks
	if len(masks) == 0 {
		golden, err := cache.Golden(cell.Tool, cell.Benchmark, factory)
		if err != nil {
			return CampaignSpec{}, err
		}
		entries, bits, ok, err := cache.Geometry(cell.Tool, cell.Benchmark, factory, cell.Structure)
		if err != nil {
			return CampaignSpec{}, err
		}
		if !ok {
			return CampaignSpec{}, fmt.Errorf("core: campaigns[%d]: %s has no structure %q", i, golden.Tool, cell.Structure)
		}
		genSpec := fault.GeneratorSpec{
			Structure: cell.Structure, Entries: entries, BitsPerEntry: bits,
			MaxCycle: golden.Cycles, Model: c.model(),
			Count: c.MaskCount(i), Seed: c.cellSeed(i),
		}
		switch {
		case c.Exhaustive, c.ImportanceSampling:
			// Both profile-driven generators read the boot liveness
			// profile of the cell's structure — the same profile the
			// pruner derives its plan from, so the equivalence classes
			// agree by construction.
			profs, perr := cache.Profiles(cell.Tool, cell.Benchmark, factory, nil, []string{cell.Structure})
			if perr != nil {
				return CampaignSpec{}, perr
			}
			var prof *bitarray.Profile
			if len(profs) > 0 {
				prof = profs[0][cell.Structure]
			}
			if prof == nil {
				return CampaignSpec{}, fmt.Errorf("core: campaigns[%d]: %s/%s exposes no liveness profile for %s (simulator has no cycle source)",
					i, cell.Tool, cell.Benchmark, cell.Structure)
			}
			if c.Exhaustive {
				masks, err = fault.EnumerateExhaustive(genSpec, prof)
			} else {
				masks, err = fault.GenerateImportance(genSpec, prof, 0)
			}
		default:
			masks, err = fault.Generate(genSpec)
		}
		if err != nil {
			return CampaignSpec{}, err
		}
		if c.LiveOnly {
			live, err := cache.LiveEntries(cell.Tool, cell.Benchmark, factory, cell.Structure)
			if err != nil {
				return CampaignSpec{}, err
			}
			if len(live) == 0 {
				return CampaignSpec{}, fmt.Errorf("core: campaigns[%d]: no live entries in %s at the end of the %s/%s golden run",
					i, cell.Structure, cell.Tool, cell.Benchmark)
			}
			for mi := range masks {
				for si := range masks[mi].Sites {
					masks[mi].Sites[si].Entry = live[masks[mi].Sites[si].Entry%len(live)]
				}
			}
		}
	}
	return CampaignSpec{
		Tool: cell.Tool, Benchmark: cell.Benchmark, Structure: cell.Structure,
		Masks: masks, Factory: factory,
		TimeoutFactor:    c.TimeoutFactor,
		DisableEarlyStop: c.DisableEarlyStop,
		UseCheckpoint:    c.UseCheckpoint,
		Exhaustive:       c.Exhaustive,
	}, nil
}

// BuildSpecs materializes every cell of the config (see buildSpec).
func (c CampaignConfig) BuildSpecs(resolve Resolver, cache *GoldenCache) ([]CampaignSpec, error) {
	specs := make([]CampaignSpec, len(c.Campaigns))
	for i := range c.Campaigns {
		spec, err := c.buildSpec(i, resolve, cache)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return specs, nil
}

// RunConfig executes a whole campaign config locally — the consolidated
// entry point the CLIs use, and the reference semantics the distributed
// path must reproduce byte-for-byte.
func RunConfig(cfg CampaignConfig, resolve Resolver, att Attach) ([]*CampaignResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if resolve == nil {
		return nil, fmt.Errorf("core: RunConfig needs a Resolver to materialize simulator factories")
	}
	cache := att.Golden
	if cache == nil {
		cache = NewGoldenCache()
	}
	cfg.prewarmGoldens(resolve, cache)
	specs, err := cfg.BuildSpecs(resolve, cache)
	if err != nil {
		return nil, err
	}
	results, _, err := runMatrix(cfg, specs, att, cache, nil)
	return results, err
}

// prewarmGoldens runs the golden reference of every distinct {tool,
// benchmark} row of the config in parallel, at most cfg.Workers at a
// time, so rows don't serialize behind the first cell that needs each.
// Errors stay memoized in the cache and surface, in deterministic cell
// order, when the specs are built and scheduled.
func (c CampaignConfig) prewarmGoldens(resolve Resolver, cache *GoldenCache) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	seen := make(map[goldenKey]bool)
	for _, cell := range c.Campaigns {
		key := goldenKey{cell.Tool, cell.Benchmark}
		if seen[key] {
			continue
		}
		seen[key] = true
		factory, err := resolve(key.tool, key.bench)
		if err != nil {
			continue // buildSpec reports it in cell order
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			_, _ = cache.Golden(key.tool, key.bench, factory)
		}()
	}
	wg.Wait()
}

// ShardRun is the wire form of one mask of an executed shard: the log
// record plus the trace provenance and telemetry extras the coordinator
// needs to reproduce the single-node event stream. A replicated row
// carries only its identity (the representative may live in another
// shard); the coordinator copies the representative's verdict at merge
// time exactly as the single-node plan fill-in does.
type ShardRun struct {
	// Index is the mask index within the campaign cell.
	Index int `json:"index"`
	// Record is the completed log record; for a replicated row only
	// MaskID and Sites are meaningful.
	Record LogRecord `json:"record"`
	// Pruned is "" (simulated), "dead" or "replicated"; RepIndex names
	// the representative's mask index for replicated rows.
	Pruned   string `json:"pruned,omitempty"`
	RepIndex int    `json:"rep_index,omitempty"`
	// Trace provenance of simulated rows (see fault.TraceRecord).
	Observed      bool   `json:"observed,omitempty"`
	FirstObsCycle uint64 `json:"first_obs_cycle,omitempty"`
	EarlyStop     string `json:"early_stop,omitempty"`
	// Telemetry extras of simulated rows.
	WallNS         int64  `json:"wall_ns,omitempty"`
	WatchedReads   uint64 `json:"watched_reads,omitempty"`
	WatchedWrites  uint64 `json:"watched_writes,omitempty"`
	ObservedReads  uint64 `json:"observed_reads,omitempty"`
	ObservedWrites uint64 `json:"observed_writes,omitempty"`
	LadderRestored bool   `json:"ladder_restored,omitempty"`
	RungCycle      uint64 `json:"rung_cycle,omitempty"`
	Windowed       bool   `json:"windowed,omitempty"`
	WindowEntered  bool   `json:"window_entered,omitempty"`
	WindowExited   bool   `json:"window_exited,omitempty"`
	FastSteps      uint64 `json:"fast_steps,omitempty"`
	DetailCycles   uint64 `json:"detail_cycles,omitempty"`
	// Divergence provenance of simulated rows (configs with Divergence
	// on; all additive, so protocol version 1 peers interoperate).
	Diverged          bool     `json:"diverged,omitempty"`
	DivergeCycle      uint64   `json:"diverge_cycle,omitempty"`
	DivergeIndex      uint64   `json:"diverge_index,omitempty"`
	FaultTouches      uint64   `json:"fault_touches,omitempty"`
	LastTouchCycle    uint64   `json:"last_touch_cycle,omitempty"`
	CorruptStructures []string `json:"corrupt_structures,omitempty"`

	// Resumed marks a run replayed from a journal rather than received
	// from a worker — coordinator-local bookkeeping, never on the wire.
	Resumed bool `json:"-"`
}

// DivergenceRecord rebuilds the divergence-provenance row of this run —
// the coordinator's merge path calls it with the resolved record so the
// assembled file is byte-identical to a single-node run's.
func (s ShardRun) DivergenceRecord(campaign string) divergence.Record {
	cls, _ := (Parser{}).Classify(s.Record)
	d := divergence.Record{
		Campaign:          campaign,
		MaskID:            s.Record.MaskID,
		Status:            s.Record.Status,
		Class:             string(cls),
		Cycles:            s.Record.Cycles,
		Observed:          s.Observed,
		FirstObsCycle:     s.FirstObsCycle,
		FaultTouches:      s.FaultTouches,
		LastTouchCycle:    s.LastTouchCycle,
		CorruptStructures: s.CorruptStructures,
		Diverged:          s.Diverged,
		DivergeCycle:      s.DivergeCycle,
		DivergeIndex:      s.DivergeIndex,
		Pruned:            s.Pruned,
		Resumed:           s.Resumed,
	}
	d.Derive()
	return d
}

// ShardResult is the outcome of one executed shard: the golden header
// of the cell (identical from every shard — deterministic simulators)
// and one run per mask of the window.
type ShardResult struct {
	Golden GoldenInfo `json:"golden"`
	Runs   []ShardRun `json:"runs"`
}

// eventCapture buffers run-end events by mask ID so RunShard can read
// back the telemetry extras of its simulated runs.
type eventCapture struct {
	mu     sync.Mutex
	byMask map[int]telemetry.RunEvent
}

func (c *eventCapture) RunEvent(ev telemetry.RunEvent) {
	c.mu.Lock()
	c.byMask[ev.MaskID] = ev
	c.mu.Unlock()
}

// RunShard executes the mask window [lo, hi) of campaign cell `campaign`
// — a distributed worker's unit of work. The full cell is rebuilt
// deterministically from the config (masks, checkpoint placement, prune
// plan), so every plan-time decision matches what a single-node run of
// the whole config would decide; only the windowed masks simulate.
// Pruned-dead rows are settled locally (their verdict needs only the
// golden reference); replicated rows are returned as stubs for the
// coordinator to resolve against their representative at merge time.
//
// att.Journal/att.Resume are ignored: the coordinator owns the journal
// of a distributed campaign as its exactly-once completion ledger.
// att.Golden is worth sharing across a worker's shards — goldens,
// ladders and liveness profiles all memoize in it.
func RunShard(cfg CampaignConfig, campaign, lo, hi int, resolve Resolver, att Attach) (*ShardResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Exhaustive {
		return nil, fmt.Errorf("core: exhaustive campaigns have no fixed shard geometry (the census size is profile-derived); run them single-node")
	}
	// The coordinator owns the global stop decision of an adaptive
	// distributed campaign; a shard must run its whole window, so the
	// local stopping rule is disarmed here.
	cfg.StopMargin, cfg.StopConfidence, cfg.StopCheckEvery = 0, 0, 0
	if resolve == nil {
		return nil, fmt.Errorf("core: RunShard needs a Resolver to materialize simulator factories")
	}
	if campaign < 0 || campaign >= len(cfg.Campaigns) {
		return nil, fmt.Errorf("core: shard targets campaign %d of %d", campaign, len(cfg.Campaigns))
	}
	n := cfg.MaskCount(campaign)
	if lo < 0 || hi > n || lo >= hi {
		return nil, fmt.Errorf("core: shard window [%d,%d) outside campaign %d's %d masks", lo, hi, campaign, n)
	}
	cache := att.Golden
	if cache == nil {
		cache = NewGoldenCache()
	}
	spec, err := cfg.buildSpec(campaign, resolve, cache)
	if err != nil {
		return nil, err
	}
	if len(spec.Masks) != n {
		return nil, fmt.Errorf("core: campaign %d materialized %d masks, config promises %d", campaign, len(spec.Masks), n)
	}

	// A private collector with a capture sink reads back the per-run
	// telemetry extras; the caller's collector (if any) must not see
	// shard-local events — the coordinator re-emits the merged stream.
	collector := telemetry.New()
	capture := &eventCapture{byMask: make(map[int]telemetry.RunEvent, hi-lo)}
	collector.AddSink(capture)
	// Divergence is measured shard-locally into a private sink and
	// shipped per run; the coordinator assembles the campaign-wide file.
	var dsink *divergence.Sink
	if cfg.Divergence {
		dsink = divergence.NewSink()
	}
	local := Attach{
		Telemetry:   collector,
		Divergence:  dsink,
		Tracer:      att.Tracer,
		TraceParent: att.TraceParent,
		SpanWorker:  att.SpanWorker,
	}
	results, plans, err := runMatrix(cfg, []CampaignSpec{spec}, local, cache, []maskWindow{{lo, hi}})
	if err != nil {
		return nil, err
	}
	res, plan := results[0], plans[0]

	var divByMask map[int]divergence.Record
	if dsink != nil {
		recs := dsink.Records()
		divByMask = make(map[int]divergence.Record, len(recs))
		for _, d := range recs {
			divByMask[d.MaskID] = d
		}
	}

	out := &ShardResult{Golden: res.Golden, Runs: make([]ShardRun, 0, hi-lo)}
	for m := lo; m < hi; m++ {
		run := ShardRun{Index: m}
		action := prune.Simulate
		if plan != nil {
			action = plan.Decisions[m].Action
		}
		switch action {
		case prune.Dead:
			run.Record = res.Records[m]
			run.Pruned = "dead"
		case prune.Replicate:
			run.Pruned = "replicated"
			run.RepIndex = plan.Decisions[m].Rep
			run.Record = LogRecord{MaskID: spec.Masks[m].ID, Sites: spec.Masks[m].Sites}
		default:
			run.Record = res.Records[m]
			capture.mu.Lock()
			ev, ok := capture.byMask[run.Record.MaskID]
			capture.mu.Unlock()
			if ok {
				run.Observed = ev.Observed
				run.FirstObsCycle = ev.FirstObsCycle
				run.EarlyStop = ev.EarlyStop
				run.WallNS = int64(ev.Wall)
				run.WatchedReads, run.WatchedWrites = ev.WatchedReads, ev.WatchedWrites
				run.ObservedReads, run.ObservedWrites = ev.ObservedReads, ev.ObservedWrites
				run.LadderRestored, run.RungCycle = ev.LadderRestored, ev.RungCycle
				run.Windowed, run.WindowEntered, run.WindowExited = ev.Windowed, ev.WindowEntered, ev.WindowExited
				run.FastSteps, run.DetailCycles = ev.FastSteps, ev.DetailCycles
			}
			if d, ok := divByMask[run.Record.MaskID]; ok {
				run.Diverged, run.DivergeCycle, run.DivergeIndex = d.Diverged, d.DivergeCycle, d.DivergeIndex
				run.FaultTouches, run.LastTouchCycle = d.FaultTouches, d.LastTouchCycle
				run.CorruptStructures = d.CorruptStructures
			}
		}
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}
