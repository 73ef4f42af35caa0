package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/svc/api"
	"repro/internal/telemetry"
	kernels "repro/internal/workload"
)

// traced runs the workload's config four times in one process: through
// each public path with tracing off, then over /v1 with the timing
// transport and spans on, and through core.RunConfig with a run-event
// sink and a span tracer. It checks all four against one reference,
// then times the plan, log and substrate layers by calling their public
// functions directly, and reports the per-layer metrics.
func traced(w workload, cfg core.CampaignConfig, dir string, ck *checker, rep *report, stdout io.Writer) error {
	rt := newTimingTransport()
	f, err := setup(cfg, true, filepath.Join(dir, "svc"), rt)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	ctx := context.Background()
	// Both paths get the same two simulation threads: two fleet workers
	// of one thread each, or one RunConfig call with two.
	svCfg, rcCfg := cfg, cfg
	svCfg.Workers, rcCfg.Workers = 1, fleetWorkers
	sv := &runner{cfg: svCfg, fleet: f, dir: dir}
	rc := &runner{cfg: rcCfg, dir: dir}
	own := viaRunConfig
	if w.viaService {
		own = viaService
	}

	// The other path runs first and warms the process, so the untraced
	// and traced campaigns of the workload's own path run back to back.
	var baseV1, baseRC, tracedV1 campaignRun
	var exchanges []exchange
	if own == viaService {
		baseRC = rc.run(ctx, viaRunConfig, api.SubmitOptions{}, core.Attach{})
		baseV1 = sv.run(ctx, viaService, w.options, core.Attach{})
	} else {
		baseV1 = sv.run(ctx, viaService, w.options, core.Attach{})
		baseRC = rc.run(ctx, viaRunConfig, api.SubmitOptions{}, core.Attach{})
	}
	if baseRC.err == nil {
		ck.setRef(baseRC.out, "untraced core.RunConfig")
	}
	ck.check("untraced /v1", baseV1)
	ck.check("untraced core.RunConfig", baseRC)

	traceV1 := func() {
		rt.take()
		opts := w.options
		opts.Spans = true
		tracedV1 = sv.run(ctx, viaService, opts, core.Attach{})
		exchanges = rt.take()
		ck.check("traced /v1", tracedV1)
	}
	if own == viaService {
		traceV1()
	}

	cache := core.NewGoldenCache()
	col := telemetry.New()
	sink := &eventSink{}
	col.AddSink(sink)
	tracer := telemetry.NewTracer("perfbench", "l")
	spans := telemetry.NewSpanBuffer()
	tracer.AddSink(spans)
	decHits0, decMiss0 := interp.DecodeCacheStats()
	tracedRC := rc.run(ctx, viaRunConfig, api.SubmitOptions{}, core.Attach{Golden: cache, Telemetry: col, Tracer: tracer, SpanWorker: "local"})
	decHits1, decMiss1 := interp.DecodeCacheStats()
	ck.check("traced core.RunConfig", tracedRC)
	if own == viaRunConfig {
		traceV1()
	}

	if err := f.stop(); err != nil {
		return err
	}
	for _, cr := range []campaignRun{baseV1, baseRC, tracedV1, tracedRC} {
		if cr.err != nil {
			return fmt.Errorf("campaign failed: %w", cr.err)
		}
	}

	base, tr := baseRC, tracedRC
	if own == viaService {
		base, tr = baseV1, tracedV1
	}
	rep.add("trace.campaign_s", tr.wall.Seconds(), "s", "traced campaign via %s; untraced %.4gs", own, base.wall.Seconds())
	rep.add("trace.overhead", ratio(tr.wall.Seconds(), base.wall.Seconds()), "ratio", "traced ÷ untraced campaign_s via %s", own)

	serviceLayer(rep, exchanges, tracedV1, baseV1, baseRC)
	runLayer(rep, sink.events(), spans.Spans(), cache, decHits1-decHits0, decMiss1-decMiss0)
	if err := planLayer(rep, cfg, baseRC.wall); err != nil {
		return err
	}
	if err := logLayer(rep, cfg, dir, tracedRC.local, tracedV1.results.Cells); err != nil {
		return err
	}
	if err := substrateLayer(rep, cfg.Campaigns[0].Benchmark); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "info campaigns: untraced /v1 %.4gs, untraced core.RunConfig %.4gs, traced /v1 %.4gs, traced core.RunConfig %.4gs\n",
		baseV1.wall.Seconds(), baseRC.wall.Seconds(), tracedV1.wall.Seconds(), tracedRC.wall.Seconds())
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serviceLayer derives the svc/dist metrics from the round trips of the
// traced /v1 campaign, from its submission to its results.
func serviceLayer(rep *report, ex []exchange, traced, baseV1, baseRC campaignRun) {
	var submit, results exchange
	var leaseRTT, completeRTT, shardS []float64
	var empty, errs int
	var firstShard, lastComplete time.Time
	leasedAt := make(map[string]time.Time) // worker/shard → lease reply
	key := func(worker string, shard int) string { return fmt.Sprintf("%s/%d", worker, shard) }
	for _, e := range ex {
		if e.status != 200 {
			errs++
		}
		switch {
		case e.path == "/v1/campaigns":
			submit = e
		case e.path == "/v1/lease":
			leaseRTT = append(leaseRTT, ms(e.end.Sub(e.start)))
			switch e.leaseState {
			case api.StatusWait:
				empty++
			case api.StatusShard:
				if firstShard.IsZero() || e.end.Before(firstShard) {
					firstShard = e.end
				}
				leasedAt[key(e.worker, e.shard)] = e.end
			}
		case e.path == "/v1/complete":
			completeRTT = append(completeRTT, ms(e.end.Sub(e.start)))
			if t, ok := leasedAt[key(e.worker, e.shard)]; ok {
				shardS = append(shardS, e.start.Sub(t).Seconds())
			}
			if e.end.After(lastComplete) {
				lastComplete = e.end
			}
		case filepath.Base(e.path) == "results":
			results = e
		}
	}
	busy := 0.0
	for _, s := range shardS {
		busy += s
	}
	rep.add("svc.submit_ms", ms(submit.end.Sub(submit.start)), "ms", "POST /v1/campaigns round trip")
	rep.add("svc.queue_wait_ms", ms(firstShard.Sub(submit.end)), "ms", "submit reply → first shard lease reply")
	rep.add("svc.lease_rtt_ms.p50", median(leaseRTT), "ms", "n=%d leases", len(leaseRTT))
	rep.add("svc.lease_rtt_ms.p99", quantile(leaseRTT, 0.99), "ms", "n=%d leases", len(leaseRTT))
	rep.add("svc.lease_empty_frac", ratio(float64(empty), float64(len(leaseRTT))), "ratio", "%d empty polls ÷ %d leases", empty, len(leaseRTT))
	rep.add("svc.complete_rtt_ms", median(completeRTT), "ms", "median of n=%d completions (the merge), max %.4g", len(completeRTT), maxOf(completeRTT))
	rep.add("svc.shard_s.p50", median(shardS), "s", "lease reply → completion sent, n=%d shards", len(shardS))
	rep.add("svc.shard_s.max", maxOf(shardS), "s", "n=%d shards", len(shardS))
	rep.add("svc.worker_busy_frac", ratio(busy, float64(fleetWorkers)*traced.wall.Seconds()), "ratio",
		"%.4g shard-seconds ÷ (%d workers × %.4gs campaign)", busy, fleetWorkers, traced.wall.Seconds())
	rep.add("svc.finalize_ms", ms(time.Unix(0, traced.status.FinishedUnixNS).Sub(lastComplete)), "ms", "last completion reply → campaign terminal (server clock)")
	rep.add("svc.results_ms", ms(results.end.Sub(results.start)), "ms", "GET /v1/campaigns/{id}/results round trip")
	rep.add("svc.requests", float64(len(ex)), "count", "HTTP requests from submit to results, status polls every %v included", statusPoll)
	rep.add("svc.http_errors", float64(errs), "count", "non-200 replies and transport errors")
	rep.add("dist.shard_retries", float64(traced.status.Requeues), "count", "shards requeued; %d duplicate completions", traced.status.Duplicates)
	rep.add("svc.path_overhead", ratio(baseV1.wall.Seconds(), baseRC.wall.Seconds()), "ratio",
		"untraced /v1 %.4gs ÷ untraced core.RunConfig %.4gs, both on 2 simulation threads", baseV1.wall.Seconds(), baseRC.wall.Seconds())
}

// eventSink keeps every run-end event of a campaign.
type eventSink struct {
	mu  sync.Mutex
	evs []telemetry.RunEvent
}

func (s *eventSink) RunEvent(ev telemetry.RunEvent) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

func (s *eventSink) events() []telemetry.RunEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evs
}

// runLayer derives the per-run metrics from the run-end events and the
// phase spans of the traced core.RunConfig campaign.
func runLayer(rep *report, evs []telemetry.RunEvent, spans []telemetry.Span, cache *core.GoldenCache, decHits, decMiss uint64) {
	var wall []float64
	var pruned, early, entered, restored, windowed int
	var fastSteps, detailCycles float64
	for _, ev := range evs {
		if ev.Pruned != "" {
			pruned++
			continue
		}
		if ev.Stopped || ev.Resumed {
			continue
		}
		wall = append(wall, ms(ev.Wall))
		if ev.EarlyStop != "" {
			early++
		}
		if ev.WindowEntered {
			entered++
		}
		if ev.LadderRestored {
			restored++
		}
		fastSteps += float64(ev.FastSteps)
		if ev.Windowed {
			windowed++
			detailCycles += float64(ev.DetailCycles)
		} else {
			detailCycles += float64(ev.Cycles)
		}
	}
	sim := float64(len(wall))
	phase := make(map[string]float64)
	for _, sp := range spans {
		if sp.Kind == telemetry.SpanPhase && sp.MaskID != nil {
			phase[sp.Name] += ms(time.Duration(sp.EndUnixNS - sp.StartUnixNS))
		}
	}
	ffHits, ffBuilds := cache.FFStats()
	rep.add("run.wall_ms.p50", median(wall), "ms", "n=%d simulated runs", len(wall))
	rep.add("run.wall_ms.p99", quantile(wall, 0.99), "ms", "n=%d simulated runs", len(wall))
	rep.add("run.ff_ms", ratio(phase["fast-forward"], sim), "ms", "fast-forward phase time per simulated run (%d runs, %d windowed)", len(wall), windowed)
	rep.add("run.window_ms", ratio(phase["window"], sim), "ms", "detailed-window phase time per simulated run")
	rep.add("run.drain_ms", ratio(phase["drain"], sim), "ms", "functional-tail phase time per simulated run")
	rep.add("run.fast_ksteps", ratio(fastSteps, sim)/1e3, "ksteps", "functional steps per simulated run")
	rep.add("run.detail_kcycles", ratio(detailCycles, sim)/1e3, "kcycles", "cycle-accurate cycles per simulated run")
	rep.add("run.ff_rung_hit_rate", ratio(float64(ffHits), float64(ffHits+ffBuilds)), "ratio", "%d rung hits ÷ %d window entries from the fast-forward ladder", ffHits, ffHits+ffBuilds)
	rep.add("run.decode_hit_rate", ratio(float64(decHits), float64(decHits+decMiss)), "ratio", "%d predecoded ÷ %d functional dispatches", decHits, decHits+decMiss)
	rep.add("run.pruned_frac", ratio(float64(pruned), float64(len(evs))), "ratio", "%d pruned ÷ %d masks", pruned, len(evs))
	rep.add("run.early_stop_frac", ratio(float64(early), sim), "ratio", "%d early-stopped ÷ %d simulated runs", early, len(wall))
	rep.add("run.window_entered_frac", ratio(float64(entered), sim), "ratio", "%d entered a window ÷ %d simulated runs", entered, len(wall))
	rep.add("run.ladder_restore_frac", ratio(float64(restored), sim), "ratio", "%d restored from a rung ÷ %d simulated runs", restored, len(wall))
}

// timed runs fn and returns its duration in milliseconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return ms(time.Since(start)), err
}

// planLayer times the GoldenCache methods on every {tool, benchmark}
// row of cfg, each row on a fresh cache, in the order core.RunConfig
// needs them. campaign is the untraced core.RunConfig campaign time, the
// base of plan.share.
func planLayer(rep *report, cfg core.CampaignConfig, campaign time.Duration) error {
	type row struct{ tool, bench string }
	var rows []row
	structs := make(map[row][]string)
	for _, c := range cfg.Campaigns {
		r := row{c.Tool, c.Benchmark}
		if _, ok := structs[r]; !ok {
			rows = append(rows, r)
		}
		structs[r] = append(structs[r], c.Structure)
	}
	k := cfg.CheckpointLadder
	if k == 0 {
		k = 3 // the layer is timed even where the config leaves it off
	}
	var golden, live, ladder, sig, profRow, profCell, rowMS []float64
	rowSum := 0.0
	for _, r := range rows {
		factory, err := cli.Resolve(r.tool, r.bench)
		if err != nil {
			return err
		}
		c := core.NewGoldenCache()
		var rungs []core.LadderRung
		g, err := timed(func() error { _, err := c.Golden(r.tool, r.bench, factory); return err })
		if err != nil {
			return err
		}
		l, err := timed(func() error {
			for _, s := range structs[r] {
				if _, err := c.LiveEntries(r.tool, r.bench, factory, s); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		ld, err := timed(func() (err error) { rungs, err = c.Ladder(r.tool, r.bench, factory, k); return err })
		if err != nil {
			return err
		}
		pr, err := timed(func() error { _, err := c.Profiles(r.tool, r.bench, factory, rungs, structs[r]); return err })
		if err != nil {
			return err
		}
		// One structure at a time, as a shard worker plans its cell. The
		// memo is keyed by the structure set, so these miss even though
		// the row's set is cached (every row here has two or more).
		for _, s := range structs[r] {
			pc, err := timed(func() error { _, err := c.Profiles(r.tool, r.bench, factory, rungs, []string{s}); return err })
			if err != nil {
				return err
			}
			profCell = append(profCell, pc)
		}
		sg, err := timed(func() error { _, err := c.CommitSignature(r.tool, r.bench, factory); return err })
		if err != nil {
			return err
		}
		golden, live, ladder, profRow, sig = append(golden, g), append(live, l), append(ladder, ld), append(profRow, pr), append(sig, sg)
		// The plan work core.RunConfig does for this row under cfg.
		rm := g
		if cfg.LiveOnly {
			rm += l
		}
		if cfg.UseCheckpoint && cfg.CheckpointLadder >= 2 {
			rm += ld
		}
		if cfg.Prune {
			rm += pr
		}
		if cfg.Divergence {
			rm += sg
		}
		rowMS = append(rowMS, rm)
		rowSum += rm
	}
	// Mask generation on a cache whose goldens and live entries are warm.
	warm := core.NewGoldenCache()
	if _, err := cfg.BuildSpecs(cli.Resolve, warm); err != nil {
		return err
	}
	bs, err := timed(func() error { _, err := cfg.BuildSpecs(cli.Resolve, warm); return err })
	if err != nil {
		return err
	}
	n := len(rows)
	rep.add("plan.golden_ms", median(golden), "ms", "median over %d rows, fresh cache per row", n)
	rep.add("plan.ladder_ms", median(ladder), "ms", "K=%d rungs, median over %d rows", k, n)
	rep.add("plan.signature_ms", median(sig), "ms", "commit signature, median over %d rows", n)
	rep.add("plan.live_entries_ms", median(live), "ms", "all structures of the row, median over %d rows", n)
	rep.add("plan.build_specs_ms", bs, "ms", "BuildSpecs of the whole config on a warm cache (%d masks)", totalMasks(cfg))
	rep.add("plan.profiles_row_ms", median(profRow), "ms", "all structures of a row at once (as core.RunConfig plans), median over %d rows", n)
	rep.add("plan.profiles_cell_ms", median(profCell), "ms", "one structure (as core.RunShard plans a cell), median over %d cells", len(profCell))
	rep.add("plan.row_ms", median(rowMS), "ms", "plan work core.RunConfig does per row under this config, median over %d rows", n)
	rep.add("plan.share", ratio(rowSum, ms(campaign)), "ratio", "%d rows × plan work (%.4g ms summed) ÷ untraced core.RunConfig campaign %.4g ms", n, rowSum, ms(campaign))
	return nil
}

func totalMasks(cfg core.CampaignConfig) int {
	n := 0
	for i := range cfg.Campaigns {
		n += cfg.MaskCount(i)
	}
	return n
}

// journalProbe caps how many fsync'd journal appends are timed.
const journalProbe = 200

// logLayer times the durable-output layers on the traced campaign's
// results: run-journal appends (one fsync each), storing the merged logs,
// and storing the result index.
func logLayer(rep *report, cfg core.CampaignConfig, dir string, results []*core.CampaignResult, cells []fault.OutcomeIndex) error {
	j, err := fault.OpenJournal(filepath.Join(dir, "probe.journal"))
	if err != nil {
		return err
	}
	var appends []float64
	keys := cfg.Keys()
	for i, res := range results {
		for _, rec := range res.Records {
			if len(appends) == journalProbe {
				break
			}
			raw, err := json.Marshal(rec)
			if err != nil {
				j.Close()
				return err
			}
			t, err := timed(func() error {
				return j.Append(fault.JournalEntry{Campaign: keys[i], MaskID: rec.MaskID, Record: raw})
			})
			if err != nil {
				j.Close()
				return err
			}
			appends = append(appends, t)
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	logs, err := core.NewLogsRepo(filepath.Join(dir, "probe-logs"))
	if err != nil {
		return err
	}
	store, err := timed(func() error {
		for i, res := range results {
			if err := logs.Store(keys[i], res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	index, err := fault.NewResultIndex(filepath.Join(dir, "probe-index"))
	if err != nil {
		return err
	}
	idx, err := timed(func() error { return index.Store("probe", cells) })
	if err != nil {
		return err
	}
	rep.add("journal.append_ms.p50", median(appends), "ms", "n=%d fsync'd appends", len(appends))
	rep.add("journal.append_ms.p99", quantile(appends, 0.99), "ms", "n=%d fsync'd appends", len(appends))
	rep.add("logs.store_ms", store, "ms", "LogsRepo.Store of all %d cells", len(results))
	rep.add("index.store_ms", idx, "ms", "ResultIndex.Store of %d cells", len(cells))
	return nil
}

// substrateReps is how many fault-free runs each simulator speed is the
// median of.
const substrateReps = 3

// substrateLayer measures raw simulator speed on fault-free runs of
// kernel: the detailed cores through core.Golden and the functional
// interpreter through interp.Run, each to completion.
func substrateLayer(rep *report, kernel string) error {
	for _, c := range []struct{ name, tool string }{
		{"gem5.x86", "gefin-x86"}, {"gem5.arm", "gefin-arm"}, {"marss.x86", "mafin-x86"},
	} {
		factory, err := cli.Resolve(c.tool, kernel)
		if err != nil {
			return err
		}
		var rates []float64
		for i := 0; i < substrateReps; i++ {
			start := time.Now()
			g, err := core.Golden(factory)
			if err != nil {
				return err
			}
			rates = append(rates, float64(g.Cycles)/time.Since(start).Seconds()/1e6)
		}
		rep.add(c.name+".mcycles_per_s", median(rates), "Mcycles/s", "fault-free %s on %s, median of %d", kernel, c.tool, len(rates))
	}
	w, err := kernels.ByName(kernel)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name   string
		target asm.Target
	}{{"interp.cisc", asm.TargetCISC}, {"interp.risc", asm.TargetRISC}} {
		img, err := w.Image(c.target)
		if err != nil {
			return err
		}
		var rates []float64
		for i := 0; i < 5*substrateReps; i++ {
			start := time.Now()
			r := interp.Run(img, 1<<62)
			if r.Outcome != interp.Completed {
				return fmt.Errorf("%s: functional %s run ended %v", c.name, kernel, r.Outcome)
			}
			rates = append(rates, float64(r.Steps)/time.Since(start).Seconds()/1e6)
		}
		rep.add(c.name+".msteps_per_s", median(rates), "Msteps/s", "fault-free %s to completion, median of %d", kernel, len(rates))
	}
	return nil
}
