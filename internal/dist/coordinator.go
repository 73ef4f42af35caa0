package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/svc/api"
	"repro/internal/telemetry"
)

// ErrCancelled is the terminal failure of a campaign cancelled through
// Cancel; errors.Is distinguishes operator cancellation from real
// failures.
var ErrCancelled = errors.New("dist: campaign cancelled")

// CoordinatorOptions parameterize shard planning, lease terms, and the
// coordinator-side resources of a distributed campaign.
type CoordinatorOptions struct {
	// ShardSize is the number of masks per shard (default 50). Smaller
	// shards spread better and re-run less on worker death; larger ones
	// amortize the per-shard plan rebuild on the worker.
	ShardSize int
	// LeaseTTL is how long a worker may hold a shard without
	// heartbeating before the coordinator requeues it (default 10s).
	LeaseTTL time.Duration
	// MaxRetries bounds how many times one shard may be requeued after
	// lease expiry before the campaign fails (default 3).
	MaxRetries int
	// RetryBackoff delays a requeued shard's next assignment by
	// backoff×retries (default 1s).
	RetryBackoff time.Duration
	// Telemetry, when non-nil, receives the merged event stream — one
	// run-end event per mask, with the same provenance a single-node run
	// emits, so progress lines, snapshots and trace sinks aggregate
	// across shards unchanged.
	Telemetry *telemetry.Collector
	// JournalFor, when non-nil, opens the durable run journal of a
	// campaign key. The coordinator appends every merged simulated run
	// to it — the exactly-once completion ledger of the distributed
	// campaign (workers never journal).
	JournalFor func(key string) (*fault.Journal, error)
	// Divergence, when non-nil, accumulates one divergence-provenance
	// record per merged mask, rebuilt from the per-run fields workers
	// ship on ShardRun — so the sorted sink flushes byte-identical to a
	// single-node -divergence run of the same config (replicated rows
	// are resolved coordinator-side at finalize, like the plan fill-in).
	Divergence *divergence.Sink
	// Tracer, when non-nil, assembles the campaign's end-to-end span
	// tree: a root campaign span, a pre-identified shard span per shard
	// (workers parent their matrix spans under it via Shard.SpanID), a
	// coordinator-side merge phase per completion, and every worker
	// span forwarded on arrival.
	Tracer *telemetry.Tracer
	// Logf, when non-nil, receives coordinator lifecycle lines (lease
	// grants, requeues, duplicates).
	Logf func(format string, args ...any)
	// MasksFor materializes the deterministic mask population of one
	// campaign cell — required when the config arms sequential early
	// stopping (stop_margin): the coordinator settles every mask beyond
	// the stop point as a stopped-early provenance row, and those rows
	// need the mask's sites and sampling weight even though no worker
	// ever simulated them.
	MasksFor func(campaign int) ([]fault.Mask, error)

	// Resume replays the campaign's durable run journals before serving
	// any lease: journaled runs prefill the exactly-once ledger (and the
	// adaptive estimators re-derive any stop decision from the real
	// completions, exactly like the single-node resume), fully-replayed
	// shards never lease again, and the journals are never re-appended
	// for replayed masks. Requires JournalFor and MasksFor.
	Resume bool

	// now is the clock; tests compress lease time.
	now func() time.Time
}

func (o CoordinatorOptions) shardSize() int {
	if o.ShardSize > 0 {
		return o.ShardSize
	}
	return 50
}

func (o CoordinatorOptions) leaseTTL() time.Duration {
	if o.LeaseTTL > 0 {
		return o.LeaseTTL
	}
	return 10 * time.Second
}

func (o CoordinatorOptions) maxRetries() int {
	if o.MaxRetries > 0 {
		return o.MaxRetries
	}
	return 3
}

func (o CoordinatorOptions) retryBackoff() time.Duration {
	if o.RetryBackoff > 0 {
		return o.RetryBackoff
	}
	return time.Second
}

// Stats is a point-in-time view of the coordinator's shard accounting.
type Stats struct {
	Shards     int // planned shards
	Completed  int // shards merged
	Requeues   int // lease expiries that put a shard back on the queue
	Duplicates int // completions of already-completed shards (discarded)
	Cancelled  int // shards cancelled by a cell's early-stop decision
}

const (
	shardQueued = iota
	shardLeased
	shardCompleted
)

type shardState struct {
	shard    Shard
	state    int
	worker   string
	expiry   time.Time // lease deadline while leased
	eligible time.Time // earliest next assignment while queued
	leased   time.Time // when the current lease was granted (span start)
	retries  int
}

// workerView is the coordinator's per-worker accounting behind the
// fleet snapshot, /fleet.json and the progress line's worker columns.
type workerView struct {
	lastSeen time.Time
	shard    int // currently leased shard, -1 when idle
	done     int // shards completed (accepted)
	snap     *telemetry.Snapshot
	final    bool // worker posted its final snapshot (draining/exited)
}

// WorkerStatus (the exported per-worker view served at /v1/fleet.json)
// is aliased from the api package in protocol.go.

// cellControl is the coordinator-side sequential stopping rule of one
// campaign cell — the distributed analog of the scheduler's cellStopper.
// Workers always run their whole shard (RunShard disarms the local
// rule); the coordinator owns the global decision and enforces the same
// contiguous-prefix discipline: merged rows buffer in pend until every
// lower mask index has merged, then commit in mask order, feeding the
// estimator one simulated run at a time and evaluating exactly when the
// simulated count reaches a boundary. The decision therefore depends
// only on the config, never on shard size, worker count, or merge
// timing — a 1-, 2- and 4-worker fleet stop at the identical cutoff,
// and journals, records and divergence files come out identical.
type cellControl struct {
	est      *adaptive.Estimator
	cadence  int
	pend     []*core.ShardRun // merged-but-uncommitted rows, by mask index
	frontier int              // mask indices [0, frontier) committed
	sim      int              // simulated rows fed to the estimator
	boundary int              // next evaluation point (simulated-run count)

	stopped     bool
	settled     bool
	finalMargin float64
}

// pendingReplica is a replicated row awaiting its representative's
// merged record; resolved at finalize exactly like the single-node
// plan fill-in.
type pendingReplica struct {
	campaign, index, rep int
	maskID               int
	sites                []fault.Site
}

// Coordinator plans a campaign config into mask-range shards, serves
// them to workers over the /v1 protocol, and merges completed shards
// into per-campaign results identical to a single-node run.
type Coordinator struct {
	cfg  core.CampaignConfig
	opt  CoordinatorOptions
	keys []string

	mu        sync.Mutex
	shards    []*shardState
	remaining int
	goldens   []core.GoldenInfo
	goldenSet []bool
	records   [][]core.LogRecord
	filled    [][]bool
	replicas  []pendingReplica
	adapt     []*cellControl // per-cell stopping rules, nil when disarmed
	masks     [][]fault.Mask // memoized MasksFor results
	journals  map[string]*fault.Journal
	// journaled are the per-key mask IDs already on disk when a resumed
	// coordinator opened the journals; appends for them are skipped so a
	// resumed campaign's journal never holds a mask twice.
	journaled   map[string]map[int]bool
	resumedRuns int
	camps       []*telemetry.CampaignStats
	workers     map[string]*workerView
	rootSpan    *telemetry.ActiveSpan
	stats       Stats
	failure     error
	finished    bool
	doneCh      chan struct{}
	results     []*core.CampaignResult
}

// New validates the config, plans the shard queue, and registers the
// campaign rows with the telemetry collector.
func New(cfg core.CampaignConfig, opt CoordinatorOptions) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Exhaustive {
		return nil, fmt.Errorf("dist: exhaustive campaigns have no fixed shard geometry (the census size is profile-derived); run them single-node")
	}
	if cfg.StopMargin > 0 && opt.MasksFor == nil {
		return nil, fmt.Errorf("dist: adaptive campaigns (stop_margin) need CoordinatorOptions.MasksFor to settle cancelled masks")
	}
	if cfg.SchemaVersion == 0 {
		// Stamp the lowest version that can express the config: configs
		// without detail-window fields are served as version 1 so legacy
		// workers keep accepting them.
		cfg.SchemaVersion = cfg.WireSchemaVersion()
	}
	if opt.now == nil {
		opt.now = time.Now
	}
	c := &Coordinator{
		cfg: cfg, opt: opt, keys: cfg.Keys(),
		goldens:   make([]core.GoldenInfo, len(cfg.Campaigns)),
		goldenSet: make([]bool, len(cfg.Campaigns)),
		records:   make([][]core.LogRecord, len(cfg.Campaigns)),
		filled:    make([][]bool, len(cfg.Campaigns)),
		journals:  make(map[string]*fault.Journal),
		workers:   make(map[string]*workerView),
		doneCh:    make(chan struct{}),
	}
	if opt.MasksFor != nil {
		c.masks = make([][]fault.Mask, len(cfg.Campaigns))
	}
	if cfg.StopMargin > 0 {
		c.adapt = make([]*cellControl, len(cfg.Campaigns))
		cadence := cfg.StopCheckEvery
		if cadence < 1 {
			cadence = adaptive.DefaultCheckEvery
		}
		for i := range cfg.Campaigns {
			est, err := adaptive.New(adaptive.Config{
				Margin:     cfg.StopMargin,
				Confidence: cfg.StopConfidence,
				CheckEvery: cfg.StopCheckEvery,
				Classes:    core.ClassStrings(),
			})
			if err != nil {
				return nil, err
			}
			c.adapt[i] = &cellControl{
				est: est, cadence: cadence, boundary: cadence,
				pend: make([]*core.ShardRun, cfg.MaskCount(i)),
			}
		}
	}
	total := 0
	size := opt.shardSize()
	for i := range cfg.Campaigns {
		n := cfg.MaskCount(i)
		total += n
		c.records[i] = make([]core.LogRecord, n)
		c.filled[i] = make([]bool, n)
		for lo := 0; lo < n; lo += size {
			hi := lo + size
			if hi > n {
				hi = n
			}
			c.shards = append(c.shards, &shardState{
				shard: Shard{ID: len(c.shards), Campaign: i, MaskLo: lo, MaskHi: hi},
			})
		}
	}
	c.remaining = len(c.shards)
	c.stats.Shards = len(c.shards)
	if tr := opt.Tracer; tr != nil {
		// The root span opens now and closes when the campaign finishes;
		// each shard's span ID is minted up front so workers can parent
		// their spans under it before the shard span itself is emitted.
		c.rootSpan = tr.Begin(telemetry.SpanCampaign, "campaign", "")
		for _, s := range c.shards {
			s.shard.TraceID = tr.TraceID()
			s.shard.SpanID = tr.NewSpanID()
		}
	}
	if tel := opt.Telemetry; tel != nil {
		// Worker pools live in the worker processes; the coordinator has
		// no pool of its own, so the utilization gauge stays off.
		tel.Start(0)
		tel.AddQueued(total)
		c.camps = make([]*telemetry.CampaignStats, len(cfg.Campaigns))
		for i, cell := range cfg.Campaigns {
			c.camps[i] = tel.Campaign(c.keys[i], cell.Tool, cell.Benchmark, cell.Structure)
		}
	}
	if opt.Resume {
		if err := c.resume(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// resume replays the durable run journals of a previous coordinator
// process into the exactly-once ledger. Journaled simulated runs commit
// through the same frontier machinery live merges use — so the adaptive
// stop decision re-derives from the real completions alone, at the
// identical boundary, regardless of where the crash fell — and journaled
// stop rows prefill the ledger without feeding the estimators. Shards
// whose whole window replayed never lease again, except that one shard
// per cell is kept queued while the cell's golden header is unknown: the
// journal carries no golden run, so one worker re-runs a shard (its rows
// dedup against the ledger) purely to re-supply the fault-free
// reference.
func (c *Coordinator) resume() error {
	if c.opt.JournalFor == nil {
		return fmt.Errorf("dist: resume requires CoordinatorOptions.JournalFor")
	}
	if c.opt.MasksFor == nil {
		return fmt.Errorf("dist: resume requires CoordinatorOptions.MasksFor to validate journaled masks")
	}
	c.journaled = make(map[string]map[int]bool)
	for i := range c.cfg.Campaigns {
		key := c.keys[i]
		jnl, err := c.opt.JournalFor(key)
		if err != nil {
			return fmt.Errorf("dist: opening journal for %s: %w", key, err)
		}
		c.journals[key] = jnl
		entries := jnl.Entries()
		if len(entries) == 0 {
			continue
		}
		masks, err := c.masksForLocked(i)
		if err != nil {
			return err
		}
		n := c.cfg.MaskCount(i)
		if len(masks) != n {
			return fmt.Errorf("dist: campaign %d: MasksFor returned %d masks, config promises %d", i, len(masks), n)
		}
		seen := make(map[int]bool, len(entries))
		c.journaled[key] = seen
		var ctl *cellControl
		if c.adapt != nil {
			ctl = c.adapt[i]
		}
		// Journal appends happen in commit order, which is mask order; the
		// sort defends replay determinism against hand-edited files.
		sorted := make([]fault.JournalEntry, len(entries))
		copy(sorted, entries)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].MaskID < sorted[b].MaskID })
		for _, e := range sorted {
			if e.MaskID < 0 || e.MaskID >= n {
				return fmt.Errorf("dist: journal for %s references mask %d outside population of %d", key, e.MaskID, n)
			}
			if seen[e.MaskID] {
				continue
			}
			var rec core.LogRecord
			if err := json.Unmarshal(e.Record, &rec); err != nil {
				return fmt.Errorf("dist: journal for %s mask %d: %w", key, e.MaskID, err)
			}
			if !reflect.DeepEqual(rec.Sites, masks[e.MaskID].Sites) {
				return fmt.Errorf("dist: stale journal for %s mask %d: the campaign's mask set changed", key, e.MaskID)
			}
			seen[e.MaskID] = true
			if e.StoppedEarly || rec.Status == core.RunStopped.String() {
				// Stop rows prefill the ledger but never feed the estimator:
				// if the decision re-derives, settleStopsLocked re-emits them
				// (flagged Resumed); trusting them directly could disagree
				// with a re-derived decision.
				c.records[i][e.MaskID] = rec
				c.filled[i][e.MaskID] = true
				continue
			}
			run := core.ShardRun{
				Index: e.MaskID, Record: rec,
				Observed: e.Observed, FirstObsCycle: e.FirstObsCycle, EarlyStop: e.EarlyStop,
				Resumed: true,
			}
			c.filled[i][e.MaskID] = true
			c.resumedRuns++
			if ctl != nil {
				r := run
				ctl.pend[e.MaskID] = &r
				continue
			}
			if err := c.commitRunLocked(i, run); err != nil {
				return err
			}
		}
		if ctl != nil {
			if err := c.advanceFrontierLocked(i, ctl); err != nil {
				return err
			}
		}
	}
	if c.adapt != nil {
		if err := c.settleStopsLocked(); err != nil {
			return err
		}
	}
	for i := range c.cfg.Campaigns {
		var full []*shardState
		partial := false
		for _, s := range c.shards {
			if s.shard.Campaign != i || s.state != shardQueued {
				continue
			}
			f := true
			for m := s.shard.MaskLo; m < s.shard.MaskHi; m++ {
				if !c.filled[i][m] {
					f = false
					break
				}
			}
			if f {
				full = append(full, s)
			} else {
				partial = true
			}
		}
		for k, s := range full {
			if k == 0 && !partial && !c.goldenSet[i] {
				continue // kept queued: a worker re-runs it for the golden header
			}
			s.state = shardCompleted
			c.remaining--
			c.stats.Completed++
		}
	}
	if c.resumedRuns > 0 {
		c.logf("dist: resumed %d journaled runs; %d/%d shards already complete", c.resumedRuns, c.stats.Completed, c.stats.Shards)
	}
	if c.remaining == 0 && c.failure == nil {
		if err := c.finalizeLocked(); err != nil {
			c.failLocked(err)
		} else {
			c.finishLocked()
		}
	}
	return nil
}

// ResumedRuns reports how many journaled runs the coordinator replayed
// at startup (zero unless Resume was set).
func (c *Coordinator) ResumedRuns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumedRuns
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// Stats returns the current shard accounting.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// failLocked records the first terminal error and wakes Wait.
func (c *Coordinator) failLocked(err error) {
	if c.failure == nil {
		c.failure = err
	}
	c.finishLocked()
}

func (c *Coordinator) finishLocked() {
	if !c.finished {
		c.finished = true
		if c.rootSpan != nil {
			c.rootSpan.End()
		}
		close(c.doneCh)
	}
}

// workerLocked returns (creating if needed) a worker's view, stamping
// its last-contact time.
func (c *Coordinator) workerLocked(id string, now time.Time) *workerView {
	w, ok := c.workers[id]
	if !ok {
		w = &workerView{shard: -1}
		c.workers[id] = w
	}
	w.lastSeen = now
	return w
}

// sweepLocked requeues the shards of workers that stopped heartbeating.
// Called on every lease and from Wait's ticker, so dead workers are
// noticed even when no one else asks for work.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, s := range c.shards {
		if s.state != shardLeased || s.expiry.After(now) {
			continue
		}
		s.retries++
		if s.retries > c.opt.maxRetries() {
			c.failLocked(fmt.Errorf("dist: shard %d (campaign %d masks [%d,%d)) lost its lease %d times; giving up",
				s.shard.ID, s.shard.Campaign, s.shard.MaskLo, s.shard.MaskHi, s.retries))
			return
		}
		c.logf("dist: shard %d lease by %s expired; requeued (retry %d)", s.shard.ID, s.worker, s.retries)
		s.state = shardQueued
		s.worker = ""
		s.eligible = now.Add(time.Duration(s.retries) * c.opt.retryBackoff())
		c.stats.Requeues++
	}
}

// Config returns the campaign config response served at /v1/config.
// The service overlays CampaignID before forwarding it.
func (c *Coordinator) Config() ConfigResponse {
	return ConfigResponse{
		ProtocolVersion: ProtocolVersion,
		Config:          c.cfg,
		LeaseTTLMS:      c.opt.leaseTTL().Milliseconds(),
	}
}

// Cancel terminates the campaign: every outstanding shard is retired
// (queued ones never lease again; a holder's next heartbeat reports the
// lease lost, and a late completion dedups) and Wait returns an error
// wrapping ErrCancelled. Idempotent; a no-op once the campaign finished.
func (c *Coordinator) Cancel(reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	if reason == "" {
		reason = "cancelled"
	}
	for _, s := range c.shards {
		if s.state == shardCompleted {
			continue
		}
		s.state = shardCompleted
		s.worker = ""
		c.remaining--
		c.stats.Cancelled++
	}
	c.failLocked(fmt.Errorf("%w: %s", ErrCancelled, reason))
}

// Lease grants a shard (or a wait/terminal status) to a polling worker.
func (c *Coordinator) Lease(workerID string) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.now()
	w := c.workerLocked(workerID, now)
	w.shard = -1 // a polling worker is idle until a grant below
	c.sweepLocked(now)
	if c.failure != nil {
		return LeaseResponse{Status: StatusFailed, Error: c.failure.Error()}
	}
	if c.remaining == 0 {
		return LeaseResponse{Status: StatusDone}
	}
	var nearest time.Time
	for _, s := range c.shards {
		switch s.state {
		case shardQueued:
			if !s.eligible.After(now) {
				s.state = shardLeased
				s.worker = workerID
				s.expiry = now.Add(c.opt.leaseTTL())
				s.leased = now
				w.shard = s.shard.ID
				c.logf("dist: shard %d leased to %s", s.shard.ID, workerID)
				sh := s.shard
				return LeaseResponse{Status: StatusShard, Shard: &sh}
			}
			if nearest.IsZero() || s.eligible.Before(nearest) {
				nearest = s.eligible
			}
		case shardLeased:
			if nearest.IsZero() || s.expiry.Before(nearest) {
				nearest = s.expiry
			}
		}
	}
	wait := time.Second
	if !nearest.IsZero() {
		wait = nearest.Sub(now)
	}
	if wait < 50*time.Millisecond {
		wait = 50 * time.Millisecond
	}
	if wait > time.Second {
		wait = time.Second
	}
	return LeaseResponse{Status: StatusWait, WaitMS: wait.Milliseconds()}
}

// Heartbeat extends a worker's shard lease.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.ShardID < 0 || req.ShardID >= len(c.shards) {
		return HeartbeatResponse{}
	}
	s := c.shards[req.ShardID]
	now := c.opt.now()
	w := c.workerLocked(req.WorkerID, now)
	if s.state != shardLeased || s.worker != req.WorkerID || !s.expiry.After(now) {
		return HeartbeatResponse{}
	}
	s.expiry = now.Add(c.opt.leaseTTL())
	w.shard = req.ShardID
	return HeartbeatResponse{OK: true}
}

// ackLocked stamps the campaign's terminal state onto a completion ack
// so the delivering worker never needs a post-completion lease poll —
// which would race the coordinator's shutdown once the last shard lands.
func (c *Coordinator) ackLocked(r CompleteResponse) CompleteResponse {
	if c.failure != nil {
		r.Failed = c.failure.Error()
	} else if c.finished {
		r.Done = true
	}
	return r
}

// Complete accepts a shard completion and merges its result.
func (c *Coordinator) Complete(req CompleteRequest) CompleteResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.ShardID < 0 || req.ShardID >= len(c.shards) {
		return CompleteResponse{Error: fmt.Sprintf("dist: no shard %d", req.ShardID)}
	}
	s := c.shards[req.ShardID]
	w := c.workerLocked(req.WorkerID, c.opt.now())
	w.shard = -1
	if req.Snapshot != nil && !w.final {
		// Piggybacked telemetry: freshest view of this worker, unless it
		// already posted its final word via /v1/snapshot.
		w.snap = req.Snapshot
	}
	if req.Error != "" {
		// Shard execution is deterministic: the same masks would fail the
		// same way on any worker, so a reported error fails the campaign.
		c.failLocked(fmt.Errorf("dist: worker %s failed shard %d (campaign %d masks [%d,%d)): %s",
			req.WorkerID, s.shard.ID, s.shard.Campaign, s.shard.MaskLo, s.shard.MaskHi, req.Error))
		return c.ackLocked(CompleteResponse{OK: true})
	}
	if s.state == shardCompleted {
		// A requeued shard finished twice (the original worker was slow,
		// not dead). The late copy is byte-identical by determinism;
		// discard it — the per-mask ledger stays exactly-once.
		c.stats.Duplicates++
		c.logf("dist: duplicate completion of shard %d by %s discarded", s.shard.ID, req.WorkerID)
		return c.ackLocked(CompleteResponse{OK: true})
	}
	mergeStart := time.Now()
	if err := c.mergeLocked(s.shard, req.Result); err != nil {
		c.failLocked(err)
		return c.ackLocked(CompleteResponse{OK: true})
	}
	s.state = shardCompleted
	s.worker = req.WorkerID
	w.done++
	c.remaining--
	c.stats.Completed++
	if tr := c.opt.Tracer; tr != nil {
		// Worker spans first (they are the shard span's subtree), then
		// the coordinator-side merge phase, then the shard span itself —
		// its ID was pre-minted at plan time so the subtree already
		// parents correctly.
		for _, sp := range req.Spans {
			tr.Forward(sp)
		}
		end := time.Now()
		tr.Emit(telemetry.Span{
			SpanID: tr.NewSpanID(), ParentID: s.shard.SpanID,
			Kind: telemetry.SpanPhase, Name: "merge", Worker: req.WorkerID,
			StartUnixNS: mergeStart.UnixNano(), EndUnixNS: end.UnixNano(),
		})
		tr.Emit(telemetry.Span{
			SpanID: s.shard.SpanID, ParentID: c.rootSpan.ID(),
			Kind: telemetry.SpanShard, Name: fmt.Sprintf("shard-%d", s.shard.ID), Worker: req.WorkerID,
			StartUnixNS: s.leased.UnixNano(), EndUnixNS: end.UnixNano(),
		})
	}
	c.logf("dist: shard %d completed by %s (%d/%d)", s.shard.ID, req.WorkerID, c.stats.Completed, c.stats.Shards)
	if c.adapt != nil {
		// A merge may have fired a cell's stopping rule; settle the
		// cancelled masks and shards after this shard's own bookkeeping so
		// the cancellation sweep never double-counts it.
		if err := c.settleStopsLocked(); err != nil {
			c.failLocked(err)
			return c.ackLocked(CompleteResponse{OK: true})
		}
	}
	if c.remaining == 0 && c.failure == nil {
		if err := c.finalizeLocked(); err != nil {
			c.failLocked(err)
		} else {
			c.finishLocked()
		}
	}
	return c.ackLocked(CompleteResponse{OK: true, Accepted: true})
}

// mergeLocked folds one shard result into the per-campaign record
// arrays, journals its simulated runs, and re-emits its run-end events
// through the coordinator's collector — the same events, with the same
// provenance, a single-node run would have emitted for these masks.
func (c *Coordinator) mergeLocked(sh Shard, res *core.ShardResult) error {
	if res == nil {
		return fmt.Errorf("dist: shard %d completed without a result", sh.ID)
	}
	if len(res.Runs) != sh.MaskHi-sh.MaskLo {
		return fmt.Errorf("dist: shard %d returned %d runs for window [%d,%d)", sh.ID, len(res.Runs), sh.MaskLo, sh.MaskHi)
	}
	i := sh.Campaign
	if !c.goldenSet[i] {
		c.goldens[i] = res.Golden
		c.goldenSet[i] = true
	} else if !reflect.DeepEqual(c.goldens[i], res.Golden) {
		// Deterministic simulators must agree on the fault-free reference;
		// a mismatch means the fleet runs divergent builds.
		return fmt.Errorf("dist: shard %d golden header disagrees with campaign %d's (mixed worker builds?)", sh.ID, i)
	}
	var ctl *cellControl
	if c.adapt != nil {
		ctl = c.adapt[i]
	}
	for _, run := range res.Runs {
		if run.Index < sh.MaskLo || run.Index >= sh.MaskHi {
			return fmt.Errorf("dist: shard %d returned mask index %d outside window [%d,%d)", sh.ID, run.Index, sh.MaskLo, sh.MaskHi)
		}
		if c.filled[i][run.Index] {
			continue // exactly-once ledger: an overlapping row merges once
		}
		c.filled[i][run.Index] = true
		if ctl != nil && !ctl.settled {
			// Adaptive cells commit in mask order through the frontier
			// below, never directly — merge order must not influence the
			// stop decision or the artifact byte streams.
			r := run
			ctl.pend[run.Index] = &r
			continue
		}
		// A settled cell's frontier is resolved: the only unfilled masks
		// left are pruned/replicated holes a resumed coordinator could not
		// replay from the journal, and they commit directly.
		if err := c.commitRunLocked(i, run); err != nil {
			return err
		}
	}
	if ctl != nil && !ctl.stopped {
		return c.advanceFrontierLocked(i, ctl)
	}
	return nil
}

// commitRunLocked folds one merged row into the ledger: replicas defer
// to finalize, simulated rows journal, and every committed row lands in
// the record array, the divergence sink and the telemetry stream.
func (c *Coordinator) commitRunLocked(i int, run core.ShardRun) error {
	switch run.Pruned {
	case "replicated":
		c.replicas = append(c.replicas, pendingReplica{
			campaign: i, index: run.Index, rep: run.RepIndex,
			maskID: run.Record.MaskID, sites: run.Record.Sites,
		})
		return nil // verdict copied from the representative at finalize
	case "":
		// Only simulated runs reach the journal — the same rows a
		// single-node -journal campaign acknowledges.
		if c.opt.JournalFor != nil {
			if err := c.journalLocked(c.keys[i], run); err != nil {
				return err
			}
		}
	}
	c.records[i][run.Index] = run.Record
	if c.opt.Divergence != nil {
		c.opt.Divergence.Add(run.DivergenceRecord(c.keys[i]))
	}
	c.emitLocked(i, run, run.Pruned, -1)
	return nil
}

// advanceFrontierLocked commits the contiguous prefix of buffered rows
// of one adaptive cell, feeding each simulated run to the estimator and
// evaluating the stopping rule exactly when the simulated count reaches
// a boundary. A decision with the whole population already committed is
// not a stop — there is nothing left to cancel, matching the scheduler's
// final-boundary rule. (One deliberate asymmetry: the coordinator cannot
// know whether the not-yet-merged tail contains any simulated masks, so
// a decision landing exactly on the cell's final simulated run while
// only pruned masks remain unmerged settles that pruned tail as stopped
// rows, where a single-node run would have filled them from the plan.)
func (c *Coordinator) advanceFrontierLocked(i int, ctl *cellControl) error {
	n := len(ctl.pend)
	for ctl.frontier < n && ctl.pend[ctl.frontier] != nil {
		run := *ctl.pend[ctl.frontier]
		if err := c.commitRunLocked(i, run); err != nil {
			return err
		}
		ctl.pend[ctl.frontier] = nil
		ctl.frontier++
		if run.Pruned != "" {
			continue
		}
		cls, _ := (core.Parser{}).Classify(run.Record)
		ctl.est.Add(string(cls))
		ctl.sim++
		if ctl.sim == ctl.boundary {
			if ctl.est.Decided() && ctl.frontier < n {
				ctl.stopped = true
				ctl.finalMargin = ctl.est.EffectiveMargin()
				return nil
			}
			ctl.boundary += ctl.cadence
		}
	}
	return nil
}

// masksForLocked memoizes the MasksFor population of one cell.
func (c *Coordinator) masksForLocked(i int) ([]fault.Mask, error) {
	if c.masks[i] != nil {
		return c.masks[i], nil
	}
	m, err := c.opt.MasksFor(i)
	if err != nil {
		return nil, fmt.Errorf("dist: materializing campaign %d's masks: %w", i, err)
	}
	c.masks[i] = m
	return m, nil
}

// settleStopsLocked converts every undecided mask of a freshly stopped
// cell into a stopped-early provenance row (journal, records, divergence
// and telemetry, exactly as the single-node settle pass) and cancels the
// cell's outstanding shards: queued ones never lease again, and a late
// completion from a still-running worker is discarded as a duplicate by
// the exactly-once ledger.
func (c *Coordinator) settleStopsLocked() error {
	for i, ctl := range c.adapt {
		if ctl == nil || !ctl.stopped || ctl.settled {
			continue
		}
		ctl.settled = true
		masks, err := c.masksForLocked(i)
		if err != nil {
			return err
		}
		n := len(ctl.pend)
		if len(masks) != n {
			return fmt.Errorf("dist: campaign %d: MasksFor returned %d masks, config promises %d", i, len(masks), n)
		}
		key := c.keys[i]
		cell := c.cfg.Campaigns[i]
		for idx := ctl.frontier; idx < n; idx++ {
			m := masks[idx]
			rec := core.LogRecord{MaskID: m.ID, Sites: m.Sites, Status: core.RunStopped.String(), Weight: m.Weight}
			// A resumed coordinator may have replayed this stop row from
			// the journal; the re-derived decision settles it again with
			// identical content, flagged Resumed like any replayed run.
			resumed := c.journaled[key][rec.MaskID]
			c.records[i][idx] = rec
			c.filled[i][idx] = true
			ctl.pend[idx] = nil
			if c.opt.JournalFor != nil {
				if err := c.journalStoppedLocked(key, rec); err != nil {
					return err
				}
			}
			if c.opt.Divergence != nil {
				c.opt.Divergence.Add(core.ShardRun{Index: idx, Record: rec, Resumed: resumed}.DivergenceRecord(key))
			}
			if tel := c.opt.Telemetry; tel != nil {
				tel.RunStarted()
				tel.RunDone(c.camps[i], telemetry.RunEvent{
					Campaign: key, Tool: cell.Tool, Benchmark: cell.Benchmark, Structure: cell.Structure,
					MaskID: rec.MaskID, Sites: rec.Sites, Status: rec.Status,
					Class: string(core.ClassStopped), Stopped: true, Resumed: resumed, Weight: rec.Weight,
				})
			}
		}
		if tel := c.opt.Telemetry; tel != nil {
			tel.CellStopped(ctl.finalMargin)
		}
		// The cancellation sweep retires the cell's outstanding shards —
		// except, on a resumed coordinator that has never heard from a
		// worker for this cell, one shard stays queued so a worker can
		// re-supply the golden header the journal does not carry.
		keep := -1
		if !c.goldenSet[i] {
			for _, s := range c.shards {
				if s.shard.Campaign == i && s.state != shardCompleted {
					keep = s.shard.ID
					break
				}
			}
		}
		cancelled := 0
		for _, s := range c.shards {
			if s.shard.Campaign != i || s.state == shardCompleted || s.shard.ID == keep {
				continue
			}
			s.state = shardCompleted
			s.worker = ""
			c.remaining--
			c.stats.Cancelled++
			cancelled++
		}
		c.logf("dist: campaign %d stopped early after %d simulated runs (margin %.4f); %d shards cancelled",
			i, ctl.sim, ctl.finalMargin, cancelled)
	}
	return nil
}

func (c *Coordinator) journalStoppedLocked(key string, rec core.LogRecord) error {
	if c.journaled[key][rec.MaskID] {
		return nil // replayed from this journal; the entry is already on disk
	}
	jnl, ok := c.journals[key]
	if !ok {
		var err error
		if jnl, err = c.opt.JournalFor(key); err != nil {
			return fmt.Errorf("dist: opening journal for %s: %w", key, err)
		}
		c.journals[key] = jnl
	}
	raw, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("dist: journaling %s stopped mask %d: %w", key, rec.MaskID, err)
	}
	return jnl.Append(fault.JournalEntry{
		Campaign: key, MaskID: rec.MaskID, Record: raw, StoppedEarly: true,
	})
}

func (c *Coordinator) journalLocked(key string, run core.ShardRun) error {
	if c.journaled[key][run.Record.MaskID] {
		return nil // replayed from this journal; the entry is already on disk
	}
	jnl, ok := c.journals[key]
	if !ok {
		var err error
		if jnl, err = c.opt.JournalFor(key); err != nil {
			return fmt.Errorf("dist: opening journal for %s: %w", key, err)
		}
		c.journals[key] = jnl
	}
	raw, err := json.Marshal(&run.Record)
	if err != nil {
		return fmt.Errorf("dist: journaling %s mask %d: %w", key, run.Record.MaskID, err)
	}
	return jnl.Append(fault.JournalEntry{
		Campaign: key, MaskID: run.Record.MaskID, Record: raw,
		Observed: run.Observed, FirstObsCycle: run.FirstObsCycle, EarlyStop: run.EarlyStop,
	})
}

// emitLocked synthesizes the run-end telemetry event of one merged row.
func (c *Coordinator) emitLocked(i int, run core.ShardRun, pruned string, repMask int) {
	if tel := c.opt.Telemetry; tel != nil {
		emitShardRun(tel, c.camps[i], c.keys[i], run, pruned, repMask)
	}
}

// emitShardRun re-emits the run-end telemetry event of one ShardRun
// through a collector — the same event, with the same provenance, a
// single-node run would have emitted for that mask. Shared by the
// coordinator's merge and a worker's post-acceptance fold.
func emitShardRun(tel *telemetry.Collector, cs *telemetry.CampaignStats, key string, run core.ShardRun, pruned string, repMask int) {
	cls, _ := (core.Parser{}).Classify(run.Record)
	tel.RunStarted()
	tel.RunDone(cs, telemetry.RunEvent{
		Campaign:       key,
		Tool:           cs.Tool,
		Benchmark:      cs.Benchmark,
		Structure:      cs.Structure,
		MaskID:         run.Record.MaskID,
		Sites:          run.Record.Sites,
		Status:         run.Record.Status,
		Class:          string(cls),
		Cycles:         run.Record.Cycles,
		Wall:           time.Duration(run.WallNS),
		Observed:       run.Observed,
		FirstObsCycle:  run.FirstObsCycle,
		EarlyStop:      run.EarlyStop,
		WatchedReads:   run.WatchedReads,
		WatchedWrites:  run.WatchedWrites,
		ObservedReads:  run.ObservedReads,
		ObservedWrites: run.ObservedWrites,
		LadderRestored: run.LadderRestored,
		RungCycle:      run.RungCycle,
		Windowed:       run.Windowed,
		WindowEntered:  run.WindowEntered,
		WindowExited:   run.WindowExited,
		FastSteps:      run.FastSteps,
		DetailCycles:   run.DetailCycles,
		Diverged:       run.Diverged,
		Pruned:         pruned,
		RepMask:        repMask,
		Resumed:        run.Resumed,
		Stopped:        run.Record.Status == core.RunStopped.String(),
		Weight:         run.Record.Weight,
	})
}

// finalizeLocked resolves replicated rows against their merged
// representatives — copying the representative's record and restamping
// the mask identity, exactly as the single-node plan fill-in does —
// then checks the per-mask ledger is complete and builds the results.
func (c *Coordinator) finalizeLocked() error {
	for _, r := range c.replicas {
		if !c.filled[r.campaign][r.rep] {
			return fmt.Errorf("dist: campaign %d mask %d replicates mask %d, which never completed", r.campaign, r.index, r.rep)
		}
		rep := c.records[r.campaign][r.rep]
		repMask := rep.MaskID
		rec := rep
		rec.MaskID = r.maskID
		rec.Sites = r.sites
		c.records[r.campaign][r.index] = rec
		if c.opt.Divergence != nil {
			c.opt.Divergence.Add(core.ShardRun{Record: rec, Pruned: "replicated"}.DivergenceRecord(c.keys[r.campaign]))
		}
		c.emitLocked(r.campaign, core.ShardRun{Index: r.index, Record: rec}, "replicated", repMask)
	}
	for i := range c.records {
		for m, ok := range c.filled[i] {
			if !ok {
				return fmt.Errorf("dist: campaign %d mask %d never completed despite all shards reporting", i, m)
			}
		}
	}
	c.results = make([]*core.CampaignResult, len(c.records))
	for i := range c.records {
		c.results[i] = &core.CampaignResult{Golden: c.goldens[i], Records: c.records[i]}
		if c.adapt == nil || c.adapt[i] == nil || c.adapt[i].sim == 0 {
			continue
		}
		ctl := c.adapt[i]
		// PlannedRuns: for a stopped cell the plan actions of the
		// cancelled tail were never computed (no worker ran those masks),
		// so the mask budget stands in for the simulated-run budget a
		// single-node result reports.
		info := &core.AdaptiveInfo{
			StoppedEarly:    ctl.stopped,
			SimulatedRuns:   ctl.sim,
			PlannedRuns:     ctl.sim,
			EffectiveMargin: ctl.est.EffectiveMargin(),
			Confidence:      c.cfg.StopConfidence,
		}
		if ctl.stopped {
			info.PlannedRuns = len(c.records[i])
			info.EffectiveMargin = ctl.finalMargin
		} else if tel := c.opt.Telemetry; tel != nil {
			tel.ObserveCellMargin(info.EffectiveMargin)
		}
		c.results[i].Adaptive = info
	}
	return nil
}

// PushSnapshot accepts a worker's pushed telemetry snapshot. A Final
// push (a draining worker's last word) freezes the view: later
// piggybacked snapshots from in-flight completions cannot roll it back.
func (c *Coordinator) PushSnapshot(req SnapshotRequest) SnapshotResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workerLocked(req.WorkerID, c.opt.now())
	if !w.final {
		snap := req.Snapshot
		w.snap = &snap
		if req.Final {
			w.final = true
			w.shard = -1
		}
	}
	return SnapshotResponse{OK: true}
}

// FleetSnapshot merges every worker's last pushed snapshot into one
// fleet-wide view — the aggregation behind /snapshot.json and /metrics.
// The coordinator's own collector is deliberately not folded in: it
// re-emits the same runs the workers already counted, so adding it
// would double every counter.
func (c *Coordinator) FleetSnapshot() telemetry.Snapshot {
	c.mu.Lock()
	ids := make([]string, 0, len(c.workers))
	for id, w := range c.workers {
		if w.snap != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	snaps := make([]telemetry.Snapshot, 0, len(ids))
	for _, id := range ids {
		snaps = append(snaps, *c.workers[id].snap)
	}
	c.mu.Unlock()
	merged := telemetry.MergeSnapshots(snaps...)
	// The early-stop counters live coordinator-side only — workers never
	// see a stopped run, so overlaying them cannot double-count. (The
	// rest of the coordinator's collector re-emits runs the workers
	// already counted and stays excluded.)
	if tel := c.opt.Telemetry; tel != nil && c.adapt != nil {
		own := tel.Snapshot()
		merged.StoppedRuns += own.StoppedRuns
		merged.CellsStoppedEarly += own.CellsStoppedEarly
		if own.EffectiveMargin > merged.EffectiveMargin {
			merged.EffectiveMargin = own.EffectiveMargin
		}
	}
	return merged
}

// Fleet returns the per-worker views, sorted by worker ID.
func (c *Coordinator) Fleet() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.now()
	out := make([]WorkerStatus, 0, len(c.workers))
	for id, w := range c.workers {
		lag := now.Sub(w.lastSeen).Seconds()
		if lag < 0 {
			lag = 0
		}
		out = append(out, WorkerStatus{ID: id, Shard: w.shard, ShardsDone: w.done, LagSeconds: lag, Final: w.final})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ProgressLine renders the coordinator's merged progress view plus one
// bracketed column per worker: its leased shard, shards done, and how
// long since it last checked in.
func (c *Coordinator) ProgressLine() string {
	tel := c.opt.Telemetry
	if tel == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(tel.Snapshot().ProgressLine())
	for _, w := range c.Fleet() {
		shard := "-"
		if w.Shard >= 0 {
			shard = strconv.Itoa(w.Shard)
		}
		fmt.Fprintf(&b, "  [%s shard=%s done=%d lag=%.0fs]", w.ID, shard, w.ShardsDone, w.LagSeconds)
	}
	return b.String()
}

// WaitFleetFinal blocks until every worker that ever pushed telemetry
// has posted its final snapshot, or timeout elapses (a crashed worker
// never posts one). The campaign completes when the last shard merges,
// which can be moments before the delivering worker's final snapshot
// arrives — callers that freeze the fleet snapshot to disk wait here
// first.
func (c *Coordinator) WaitFleetFinal(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		all := true
		for _, w := range c.workers {
			if w.snap != nil && !w.final {
				all = false
				break
			}
		}
		c.mu.Unlock()
		if all {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Wait blocks until every shard has completed (returning the merged
// per-campaign results, in config cell order) or the campaign fails.
// It also drives the lease sweep, so dead workers are requeued even
// when no live worker is polling.
func (c *Coordinator) Wait(ctx context.Context) ([]*core.CampaignResult, error) {
	tick := c.opt.leaseTTL() / 2
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-c.doneCh:
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.failure != nil {
				return nil, c.failure
			}
			return c.results, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
			c.mu.Lock()
			c.sweepLocked(c.opt.now())
			c.mu.Unlock()
		}
	}
}

// Close closes the journals the coordinator opened.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, j := range c.journals {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.journals = map[string]*fault.Journal{}
	return first
}

// Handler returns the /v1 protocol endpoints.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/config", MethodOnly(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Config())
	}))
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.Lease(req.WorkerID))
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.Heartbeat(req))
	})
	mux.HandleFunc("/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.Complete(req))
	})
	mux.HandleFunc("/v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		var req SnapshotRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.PushSnapshot(req))
	})
	return mux
}

// ObsHandler returns the coordinator's observability endpoints mounted
// alongside the /v1 protocol: /v1/snapshot.json and /v1/metrics serve
// the fleet-aggregated telemetry, /v1/fleet.json the per-worker
// lease/lag accounting, and /v1/events — when an event stream is
// attached — the live SSE feed of progress, run and span events.
func (c *Coordinator) ObsHandler(es *telemetry.EventStream) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/", c.Handler())
	MountObs(mux, ObsEndpoints{
		Snapshot: c.FleetSnapshot,
		Fleet: func() []WorkerStatus {
			return c.Fleet()
		},
		Events: es,
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no such endpoint: %s", r.URL.Path)
			return
		}
		fmt.Fprintln(w, "faultcampd: /v1/{config,lease,heartbeat,complete,snapshot}  /v1/{snapshot.json,metrics,fleet.json,events}  (unprefixed observability paths are deprecated aliases)")
	})
	return mux
}

// ObsEndpoints are the data sources behind the observability plane —
// shared by the single-campaign coordinator and the multi-campaign
// service, which each mount them over their own aggregation.
type ObsEndpoints struct {
	Snapshot func() telemetry.Snapshot
	Fleet    func() []WorkerStatus
	Events   http.Handler // nil when no event stream is attached
}

// MountObs registers the telemetry endpoints on a mux under /v1/.
func MountObs(mux *http.ServeMux, eps ObsEndpoints) {
	snap := MethodOnly(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		b, err := eps.Snapshot().JSON()
		if err != nil {
			api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(b, '\n'))
	})
	metrics := MethodOnly(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		eps.Snapshot().WritePrometheus(w)
	})
	fleet := MethodOnly(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, eps.Fleet())
	})
	mux.HandleFunc("/v1/snapshot.json", snap)
	mux.HandleFunc("/v1/metrics", metrics)
	mux.HandleFunc("/v1/fleet.json", fleet)
	if eps.Events != nil {
		mux.Handle("/v1/events", MethodOnly(http.MethodGet, eps.Events.ServeHTTP))
	}
}

// MethodOnly wraps a handler with a method check that answers the
// shared error envelope on mismatch.
func MethodOnly(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "%s only", method)
			return
		}
		h(w, r)
	}
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return api.ReadJSON(w, r, v)
}

func writeJSON(w http.ResponseWriter, v any) {
	api.WriteJSON(w, v)
}
