package report

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// serialReference reproduces the pre-scheduler serial path of one
// campaign: its own golden run, the same deterministic mask population,
// and one boot-run per mask in order — no memoization, no shared queue.
func serialReference(t *testing.T, tool, bench, structure string, opt Options) *core.CampaignResult {
	t.Helper()
	w, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := sims.Factory(tool, w)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := core.Golden(factory)
	if err != nil {
		t.Fatal(err)
	}
	// The scheduled paths stamp the cell's registry tool name (the
	// campaign-key spelling) over the simulator's display name.
	golden.Tool = tool
	golden.Benchmark = bench
	golden.Structure = structure
	sim := factory()
	arr, ok := sim.Structures()[structure]
	if !ok {
		t.Fatalf("%s has no structure %q", tool, structure)
	}
	masks, err := fault.Generate(fault.GeneratorSpec{
		Structure: structure, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
		MaxCycle: golden.Cycles, Model: fault.ModelTransient,
		Count: opt.injections(), Seed: seedFor(opt.Config.Seed, 0, bench, tool+structure),
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Config.LiveOnly {
		twin := factory()
		if res := twin.Run(1 << 62); res.Status != core.RunCompleted {
			t.Fatalf("twin probe: %v", res.Status)
		}
		tarr := twin.Structures()[structure]
		var live []int
		for e := 0; e < tarr.Entries(); e++ {
			if tarr.EntryValid(e) {
				live = append(live, e)
			}
		}
		if len(live) == 0 {
			t.Fatalf("no live entries in %s", structure)
		}
		for i := range masks {
			for j := range masks[i].Sites {
				masks[i].Sites[j].Entry = live[masks[i].Sites[j].Entry%len(live)]
			}
		}
	}
	res := &core.CampaignResult{Golden: golden}
	for _, m := range masks {
		rec, err := core.RunOne(factory, m, golden, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		res.Records = append(res.Records, rec)
	}
	return res
}

// loggedRecords reads one campaign of a figure run back from its logs.
func loggedRecords(t *testing.T, repo *core.LogsRepo, tool, bench, structure string) *core.CampaignResult {
	t.Helper()
	res, err := repo.Load(fault.CampaignKey(tool, bench, structure))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The scheduler-driven figure path must be byte-identical to the serial
// pre-scheduler path for a fixed seed: same per-mask records, same
// breakdowns, same golden cells.
func TestRunFiguresMatchesSerialReference(t *testing.T) {
	repo, err := core.NewLogsRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewGoldenCache()
	opt := Options{
		Config:     core.CampaignConfig{Injections: 8, Seed: 7, Workers: 4},
		Attach:     core.Attach{Golden: cache},
		Benchmarks: []string{"qsort"},
		Logs:       repo,
	}
	spec := Figures[4] // Fig 6: lsq.data
	fd, err := RunFigure(spec, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range opt.tools() {
		want := serialReference(t, tool, "qsort", spec.Structure, opt)
		// Per-mask records through the scheduler path.
		res := loggedRecords(t, repo, tool, "qsort", spec.Structure)
		if !reflect.DeepEqual(res.Records, want.Records) {
			t.Fatalf("%s: scheduler records differ from serial reference:\n%+v\nvs\n%+v",
				tool, res.Records, want.Records)
		}
		if !reflect.DeepEqual(res.Golden, want.Golden) {
			t.Fatalf("%s: golden differs: %+v vs %+v", tool, res.Golden, want.Golden)
		}
		// Figure cells.
		cell, ok := fd.CellFor("qsort", tool)
		if !ok {
			t.Fatalf("missing cell for %s", tool)
		}
		if !reflect.DeepEqual(cell.Breakdown, opt.Parser.ParseAll(want.Records)) {
			t.Fatalf("%s: cell breakdown differs from serial reference", tool)
		}
		if !reflect.DeepEqual(cell.Golden, want.Golden) {
			t.Fatalf("%s: cell golden differs: %+v vs %+v", tool, cell.Golden, want.Golden)
		}
	}
	// One golden simulation per {tool, benchmark} row for the whole
	// matrix — the serial path performed two per structure campaign.
	if got, want := cache.Runs(), len(opt.tools()); got != want {
		t.Fatalf("golden runs = %d, want exactly %d (one per row)", got, want)
	}
}

// A two-figure matrix over the same rows must still run each row's
// golden exactly once, and produce the same figures as figure-at-a-time
// runs.
func TestRunFiguresSharesGoldensAcrossFigures(t *testing.T) {
	cache := core.NewGoldenCache()
	opt := Options{
		Config:     core.CampaignConfig{Injections: 5, Seed: 3, Workers: 4},
		Attach:     core.Attach{Golden: cache},
		Benchmarks: []string{"qsort"},
		Tools:      []string{sims.MaFINX86, sims.GeFINARM},
	}
	specs := []FigureSpec{Figures[0], Figures[4]} // rf.int and lsq.data
	fds, err := RunFigures(specs, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fds) != 2 {
		t.Fatalf("figures %d, want 2", len(fds))
	}
	if got, want := cache.Runs(), 2; got != want {
		t.Fatalf("golden runs = %d, want %d (2 rows, shared across 2 figures)", got, want)
	}
	for i, spec := range specs {
		solo, err := RunFigure(spec, Options{
			Config:     core.CampaignConfig{Injections: 5, Seed: 3, Workers: 1},
			Benchmarks: opt.Benchmarks, Tools: opt.Tools,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fds[i].Cells, solo.Cells) {
			t.Fatalf("fig %d: matrix cells differ from solo run:\n%+v\nvs\n%+v",
				spec.ID, fds[i].Cells, solo.Cells)
		}
	}
}

// The memoized LiveOnly probe must reproduce the twin-replay population
// and records exactly.
func TestLiveOnlyMatchesTwinProbeReference(t *testing.T) {
	repo, err := core.NewLogsRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Config:     core.CampaignConfig{Injections: 6, Seed: 2, Workers: 2, LiveOnly: true},
		Benchmarks: []string{"qsort"},
		Tools:      []string{sims.GeFINX86},
		Logs:       repo,
	}
	want := serialReference(t, sims.GeFINX86, "qsort", "l2.data", opt)
	if _, err := RunFigure(Figures[3], opt, nil); err != nil { // Fig 5: l2.data
		t.Fatal(err)
	}
	res := loggedRecords(t, repo, sims.GeFINX86, "qsort", "l2.data")
	if !reflect.DeepEqual(res.Records, want.Records) {
		t.Fatalf("LiveOnly scheduler records differ from twin-probe reference:\n%+v\nvs\n%+v",
			res.Records, want.Records)
	}
}

// The figure path must honour the CampaignConfig knobs and label its
// artifacts the way every other entry point does. Each case runs one
// {tool, benchmark} row through RunFigure and checks that the row's
// golden reference ran exactly once, that every trace and telemetry
// campaign key is a log key, and the case's own knob effect.
func TestRunFiguresHonoursConfig(t *testing.T) {
	const n = 8
	cases := []struct {
		name  string
		cfg   core.CampaignConfig
		check func(t *testing.T, snap telemetry.Snapshot, div *divergence.Sink)
	}{
		{
			name: "detail window and divergence",
			cfg: core.CampaignConfig{
				DetailWindow: true, WindowPre: 2000, WindowPost: 1000, WindowVerify: 4,
				Divergence: true,
			},
			check: func(t *testing.T, snap telemetry.Snapshot, div *divergence.Sink) {
				if snap.WindowedRuns == 0 {
					t.Fatal("no windowed runs: the detail-window knobs did not reach the scheduler")
				}
				if div.Len() != n {
					t.Fatalf("%d divergence records, want one per mask (%d)", div.Len(), n)
				}
			},
		},
		{
			name: "checkpoint ladder and prune",
			cfg:  core.CampaignConfig{UseCheckpoint: true, CheckpointLadder: 3, Prune: true},
			check: func(t *testing.T, snap telemetry.Snapshot, _ *divergence.Sink) {
				if snap.PrunedDead+snap.PrunedReplicated == 0 {
					t.Fatal("nothing pruned: the prune knob did not reach the scheduler")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			repo, err := core.NewLogsRepo(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cache := core.NewGoldenCache()
			col := telemetry.New()
			trace := telemetry.NewTraceSink()
			col.AddSink(trace)
			cfg := tc.cfg
			cfg.Injections, cfg.Seed, cfg.Workers = n, 1, 2
			att := core.Attach{Golden: cache, Telemetry: col}
			var div *divergence.Sink
			if cfg.Divergence {
				div = divergence.NewSink()
				att.Divergence = div
			}
			opt := Options{
				Config: cfg, Attach: att, Logs: repo,
				Benchmarks: []string{"qsort"}, Tools: []string{sims.GeFINX86},
			}
			if _, err := RunFigure(Figures[0], opt, nil); err != nil {
				t.Fatal(err)
			}
			if runs, _ := cache.Stats(); runs != 1 {
				t.Fatalf("golden runs = %d, want 1 for one {tool, benchmark} row", runs)
			}
			keys, err := repo.Campaigns()
			if err != nil {
				t.Fatal(err)
			}
			logged := make(map[string]bool)
			for _, k := range keys {
				logged[k] = true
			}
			for _, rec := range trace.Records() {
				if !logged[rec.Campaign] {
					t.Fatalf("trace key %q is not a log key (logs: %v)", rec.Campaign, keys)
				}
			}
			snap := col.Snapshot()
			for _, row := range snap.Campaigns {
				if key := fault.CampaignKey(row.Tool, row.Benchmark, row.Structure); !logged[key] {
					t.Fatalf("telemetry row key %q is not a log key (logs: %v)", key, keys)
				}
			}
			tc.check(t, snap, div)
		})
	}
}
