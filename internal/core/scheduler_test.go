package core_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/workload"
)

// fakeSim is a minimal deterministic Simulator for scheduler plumbing
// tests: it exercises its single array every cycle so armed faults go
// through the normal consume/overwrite lifecycle, and completes with a
// fixed output.
type fakeSim struct {
	arr       *bitarray.Array
	watch     []*bitarray.Array
	earlyStop bool
}

func newFakeSim() *fakeSim {
	return &fakeSim{arr: bitarray.New("s", 8, 64), earlyStop: true}
}

func (s *fakeSim) Name() string { return "Fake" }
func (s *fakeSim) ISA() string  { return "x86" }
func (s *fakeSim) Structures() map[string]*bitarray.Array {
	return map[string]*bitarray.Array{"s": s.arr}
}
func (s *fakeSim) WatchArrays(arrs []*bitarray.Array) { s.watch = arrs }
func (s *fakeSim) SetEarlyStop(on bool)               { s.earlyStop = on }
func (s *fakeSim) Stats() map[string]uint64           { return map[string]uint64{"ops": 100} }

func (s *fakeSim) Run(limit uint64) core.RunResult {
	const cycles = 100
	out := make([]byte, 8)
	for cyc := uint64(0); cyc < cycles && cyc < limit; cyc++ {
		for _, a := range s.watch {
			st := a.Tick(cyc)
			if s.earlyStop && (st == bitarray.StatusOverwritten || st == bitarray.StatusSkippedInvalid) {
				return core.RunResult{Status: core.RunEarlyMasked, Cycles: cyc, Committed: cyc}
			}
		}
		s.arr.WriteUint64(int(cyc%4), cyc)
		out[0] ^= byte(s.arr.ReadUint64(int(cyc % 4)))
	}
	return core.RunResult{Status: core.RunCompleted, Output: out, Cycles: cycles, Committed: cycles}
}

func countingFactory(calls *int64) core.Factory {
	return func() core.Simulator {
		atomic.AddInt64(calls, 1)
		return newFakeSim()
	}
}

// resolveTo is a Resolver that hands every cell the same factory.
func resolveTo(f core.Factory) core.Resolver {
	return func(string, string) (core.Factory, error) { return f, nil }
}

// fakeCell is an explicit-mask cell of the fake tool's structure.
func fakeCell(bench string, masks []fault.Mask) core.CampaignCell {
	return core.CampaignCell{Tool: "fake", Benchmark: bench, Structure: "s", Masks: masks}
}

func fakeMasks(n int) []fault.Mask {
	masks := make([]fault.Mask, n)
	for i := range masks {
		masks[i] = fault.Mask{ID: i, Sites: []fault.Site{{
			Structure: "s", Entry: i % 8, Bit: i % 64,
			Model: fault.ModelTransient, Cycle: uint64(10 + i),
		}}}
	}
	return masks
}

// The memoizer must return a GoldenInfo byte-identical to a fresh
// Golden run of the same factory.
func TestGoldenCacheMatchesFreshRun(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	fresh, err := core.Golden(f)
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewGoldenCache()
	memo, err := cache.Golden(sims.GeFINX86, "qsort", f)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Benchmark = "qsort" // the cache stamps the row's benchmark
	fb, _ := json.Marshal(fresh)
	mb, _ := json.Marshal(memo)
	if string(fb) != string(mb) {
		t.Fatalf("memoized golden differs from fresh run:\nfresh: %s\nmemo:  %s", fb, mb)
	}
	if cache.Runs() != 1 {
		t.Fatalf("cache performed %d runs, want 1", cache.Runs())
	}
	// A second lookup is served from memory.
	if _, err := cache.Golden(sims.GeFINX86, "qsort", f); err != nil {
		t.Fatal(err)
	}
	if cache.Runs() != 1 {
		t.Fatalf("cache re-ran the golden: %d runs", cache.Runs())
	}
}

// A matrix of several structures per {tool, benchmark} row must perform
// exactly one golden simulation per row, not one (or two) per campaign:
// total factory calls = 1 golden per row + 1 per injection run.
func TestRunMatrixGoldenRunsOncePerRow(t *testing.T) {
	var calls int64
	factory := countingFactory(&calls)
	cache := core.NewGoldenCache()
	cfg := core.CampaignConfig{Workers: 4}
	rows := []string{"b1", "b2"}
	structures := []string{"sA", "sB", "sC"}
	const masksPer = 4
	for _, bench := range rows {
		for range structures {
			cfg.Campaigns = append(cfg.Campaigns, fakeCell(bench, fakeMasks(masksPer)))
		}
	}
	results, err := core.RunConfig(cfg, resolveTo(factory), core.Attach{Golden: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cfg.Campaigns) {
		t.Fatalf("results %d, want %d", len(results), len(cfg.Campaigns))
	}
	if got := cache.Runs(); got != len(rows) {
		t.Fatalf("golden runs = %d, want exactly %d (one per {tool,benchmark} row)", got, len(rows))
	}
	wantCalls := int64(len(rows) + len(cfg.Campaigns)*masksPer)
	if calls != wantCalls {
		t.Fatalf("factory calls = %d, want %d (1 golden per row + 1 per injection run)", calls, wantCalls)
	}
	for _, res := range results {
		if len(res.Records) != masksPer {
			t.Fatalf("records %d, want %d", len(res.Records), masksPer)
		}
		for i, r := range res.Records {
			if r.MaskID != i {
				t.Fatalf("record %d carries mask id %d (mask order lost)", i, r.MaskID)
			}
		}
	}
}

// A golden reference already memoized in the attached cache must
// suppress the controller's own golden run entirely: the cache supplies
// the golden, the geometry for mask validation and the golden header.
func TestRunCampaignSuppliedGoldenSkipsRun(t *testing.T) {
	var calls int64
	factory := countingFactory(&calls)
	cache := core.NewGoldenCache()
	if _, err := cache.Golden("fake", "b", factory); err != nil {
		t.Fatal(err)
	}
	calls = 0
	results, err := core.RunConfig(core.CampaignConfig{
		Campaigns: []core.CampaignCell{fakeCell("b", fakeMasks(3))},
		Workers:   2,
	}, resolveTo(factory), core.Attach{Golden: cache})
	if err != nil {
		t.Fatal(err)
	}
	// 3 calls: one per injection run — no golden simulation and no
	// geometry probe.
	if calls != 3 {
		t.Fatalf("factory calls = %d, want 3 (injection runs only, golden memoized)", calls)
	}
	if g := results[0].Golden; g.Benchmark != "b" || g.Structure != "s" || g.Tool != "fake" {
		t.Fatalf("golden fields not restamped: %+v", g)
	}
}

// The flattened queue must produce identical records regardless of the
// worker count.
func TestRunMatrixWorkerCountParity(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	g, err := core.Golden(f)
	if err != nil {
		t.Fatal(err)
	}
	sim := f()
	var cells []core.CampaignCell
	for _, structure := range []string{"rf.int", "lsq.data"} {
		arr := sim.Structures()[structure]
		masks, err := fault.Generate(fault.GeneratorSpec{
			Structure: structure, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
			MaxCycle: g.Cycles, Model: fault.ModelTransient, Count: 6, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, core.CampaignCell{
			Tool: "gefin-x86", Benchmark: "qsort", Structure: structure, Masks: masks,
		})
	}
	run := func(workers int) []*core.CampaignResult {
		res, err := core.RunConfig(core.CampaignConfig{Campaigns: cells, Workers: workers}, resolveTo(f), core.Attach{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	for s := range serial {
		if !reflect.DeepEqual(serial[s].Records, parallel[s].Records) {
			t.Fatalf("campaign %d records differ between Workers=1 and Workers=8:\n%+v\nvs\n%+v",
				s, serial[s].Records, parallel[s].Records)
		}
		a := (core.Parser{}).ParseAll(serial[s].Records)
		b := (core.Parser{}).ParseAll(parallel[s].Records)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("campaign %d classification differs: %v vs %v", s, a, b)
		}
		for i, r := range serial[s].Records {
			if r.MaskID != i {
				t.Fatalf("campaign %d record %d has mask id %d", s, i, r.MaskID)
			}
		}
	}
}

// A malformed mask must surface the error of the earliest mask — since
// plan-time validation these are caught before anything is queued, so
// the guarantee holds trivially here; the runtime (worker-pool) half of
// the contract is covered by TestRunMatrixContainedPanicFirstError.
func TestRunMatrixFirstErrorDeterministic(t *testing.T) {
	var calls int64
	factory := countingFactory(&calls)
	masks := fakeMasks(12)
	// Two poisoned masks: the scheduler must always report the earlier.
	masks[3].Sites[0].Structure = "bogus-early"
	masks[7].Sites[0].Structure = "bogus-late"
	for _, workers := range []int{1, 2, 8} {
		_, err := core.RunConfig(core.CampaignConfig{
			Campaigns: []core.CampaignCell{fakeCell("b", masks)},
			Workers:   workers,
		}, resolveTo(factory), core.Attach{})
		if err == nil {
			t.Fatalf("workers=%d: poisoned campaign succeeded", workers)
		}
		if !strings.Contains(err.Error(), "bogus-early") {
			t.Fatalf("workers=%d: got %v, want the mask-3 error", workers, err)
		}
	}
	// Same contract when the poisoned cell follows a clean one.
	if _, err := core.RunConfig(core.CampaignConfig{
		Campaigns: []core.CampaignCell{fakeCell("a", fakeMasks(4)), fakeCell("b", masks)},
		Workers:   4,
	}, resolveTo(factory), core.Attach{}); err == nil || !strings.Contains(err.Error(), "bogus-early") {
		t.Fatalf("two-cell error = %v, want the mask-3 error", err)
	}
}

// LiveEntries must match a fresh twin probe of the same structure.
func TestGoldenCacheLiveEntries(t *testing.T) {
	w, err := workload.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	f, err := sims.Factory(sims.GeFINX86, w)
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewGoldenCache()
	live, err := cache.LiveEntries(sims.GeFINX86, "qsort", f, "l1d.data")
	if err != nil {
		t.Fatal(err)
	}
	// Twin reference: replay the golden run from boot and probe.
	twin := f()
	if res := twin.Run(1 << 62); res.Status != core.RunCompleted {
		t.Fatalf("twin run: %v", res.Status)
	}
	arr := twin.Structures()["l1d.data"]
	var want []int
	for e := 0; e < arr.Entries(); e++ {
		if arr.EntryValid(e) {
			want = append(want, e)
		}
	}
	if !reflect.DeepEqual(live, want) {
		t.Fatalf("live entries differ from twin probe: %v vs %v", live, want)
	}
	if len(live) == 0 {
		t.Fatal("no live entries found in l1d.data after qsort")
	}
	// Memoized: second call performs no extra simulation.
	runs := cache.Runs()
	if _, err := cache.LiveEntries(sims.GeFINX86, "qsort", f, "l1d.data"); err != nil {
		t.Fatal(err)
	}
	if cache.Runs() != runs {
		t.Fatal("second LiveEntries probe re-simulated")
	}
	if _, _, ok, err := cache.Geometry(sims.GeFINX86, "qsort", f, "no-such"); err != nil || ok {
		t.Fatalf("unknown structure geometry: ok=%v err=%v", ok, err)
	}
}
