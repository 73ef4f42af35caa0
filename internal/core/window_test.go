package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/telemetry"
)

// windowCampaigns builds the standard two-structure qsort campaign pair
// used by the detail-window tests: register-file faults (settle fast,
// long functional tails) and L1D faults (residency-gated exits), on a
// 4-worker config with no window knobs set yet.
func windowCampaigns(t *testing.T, tool string, f core.Factory, count int, seed int64) core.CampaignConfig {
	t.Helper()
	g, err := core.Golden(f)
	if err != nil {
		t.Fatal(err)
	}
	sim := f()
	cfg := core.CampaignConfig{TimeoutFactor: 3, Workers: 4}
	for _, structure := range []string{"rf.int", "l1d.data"} {
		arr := sim.Structures()[structure]
		masks, err := fault.Generate(fault.GeneratorSpec{
			Structure: structure, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
			MaxCycle: g.Cycles, Model: fault.ModelTransient, Count: count, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Campaigns = append(cfg.Campaigns, core.CampaignCell{
			Tool: tool, Benchmark: "qsort", Structure: structure, Masks: masks,
		})
	}
	return cfg
}

// withWindow turns the detail window on with the standard margins.
func withWindow(cfg core.CampaignConfig) core.CampaignConfig {
	cfg.DetailWindow, cfg.WindowPre, cfg.WindowPost = true, 2000, 1000
	return cfg
}

func classesPerMask(t *testing.T, results []*core.CampaignResult) [][]core.Class {
	t.Helper()
	out := make([][]core.Class, len(results))
	for i, res := range results {
		out[i] = make([]core.Class, len(res.Records))
		for j, rec := range res.Records {
			out[i][j], _ = (core.Parser{}).Classify(rec)
		}
	}
	return out
}

// TestDetailWindowDifferential is the window-on vs window-off
// differential: the same campaigns, once fully cycle-accurate and once
// under a detail window. Windowing is sampled execution — the
// functional fast-forward reaches the window entry along a slightly
// different trajectory than a warm cycle-accurate machine, so
// borderline masks may individually reclassify (the same acceptance as
// checkpoint restores; per-trajectory soundness is what
// TestWindowVerifyAgrees pins down). What must hold is the statistical
// contract: the vast majority of masks classify identically and the
// per-structure class distributions stay within a small drift — and the
// windowed run must actually use the fast tier (otherwise the test
// proves nothing).
func TestDetailWindowDifferential(t *testing.T) {
	for _, tc := range []struct {
		tool string
		// wantExits: whether any run should hand its tail back to the
		// functional tier. On gem5 dirty write-back lines become
		// capture-safe, so l1d tails exit. On MaFIN every rf.int mask
		// early-masks at the site (physical registers recycle fast — no
		// tail survives) and dual-copy caches pin resident corruption,
		// so zero exits is the correct, optimal outcome there; the fast
		// tier still absorbs the whole pre-fault prefix.
		wantExits bool
	}{{sims.MaFINX86, false}, {sims.GeFINX86, true}} {
		tool := tc.tool
		t.Run(tool, func(t *testing.T) {
			f := qsortFactory(t, tool)
			cfg := windowCampaigns(t, tool, f, 25, 41)

			run := func(window bool) ([]*core.CampaignResult, telemetry.Snapshot) {
				col := telemetry.New()
				c := cfg
				if window {
					c = withWindow(cfg)
				}
				res, err := core.RunConfig(c, resolveTo(f), core.Attach{Telemetry: col})
				if err != nil {
					t.Fatal(err)
				}
				return res, col.Snapshot()
			}

			full, fullSnap := run(false)
			windowed, winSnap := run(true)

			if fullSnap.WindowedRuns != 0 || fullSnap.FastSteps != 0 {
				t.Fatalf("window-off run reports window telemetry: %d runs, %d fast steps",
					fullSnap.WindowedRuns, fullSnap.FastSteps)
			}
			if winSnap.WindowedRuns == 0 || winSnap.WindowEntries == 0 {
				t.Fatalf("windowed campaign never used the window: %d windowed, %d entries",
					winSnap.WindowedRuns, winSnap.WindowEntries)
			}
			if tc.wantExits && winSnap.WindowExits == 0 {
				t.Fatalf("no run handed its tail back to the functional tier: %+v", winSnap)
			}
			if winSnap.FastSteps == 0 || winSnap.FastTierShare == 0 {
				t.Fatalf("windowed campaign did no fast-tier work: %+v", winSnap)
			}
			t.Logf("%s: %d/%d runs exited the window, fast-tier share %.1f%%",
				tool, winSnap.WindowExits, winSnap.WindowedRuns, 100*winSnap.FastTierShare)

			fullCls, winCls := classesPerMask(t, full), classesPerMask(t, windowed)
			same, total := 0, 0
			for i := range fullCls {
				drift := map[core.Class]int{}
				for j := range fullCls[i] {
					total++
					if fullCls[i][j] == winCls[i][j] {
						same++
					} else {
						t.Logf("%s mask %d: window-off %s, window-on %s (borderline reclassification)",
							cfg.Campaigns[i].Structure, j, fullCls[i][j], winCls[i][j])
					}
					drift[fullCls[i][j]]--
					drift[winCls[i][j]]++
				}
				for cls, d := range drift {
					if d < 0 {
						d = -d
					}
					if max := len(fullCls[i]) / 5; d > max {
						t.Errorf("%s: class %s count drifts by %d under windowing (tolerance %d of %d masks)",
							cfg.Campaigns[i].Structure, cls, d, max, len(fullCls[i]))
					}
				}
			}
			if same*10 < total*7 {
				t.Errorf("only %d/%d masks classify identically under windowing (want >= 70%%)", same, total)
			}
			t.Logf("%s: %d/%d masks classify identically", tool, same, total)
		})
	}
}

// TestWindowExitsWithoutEarlyStop pins down the MaFIN window exit path.
// With early-stop on, every qsort rf.int mask is proven masked at the
// injection site, so no tail survives to be handed back (see
// TestDetailWindowDifferential). With early-stop disabled the runs keep
// going, the applied faults are architecturally capture-safe in the
// drained register file, and the tails must run on the functional tier
// — with the class verdicts still agreeing with the full cycle-accurate
// runs.
func TestWindowExitsWithoutEarlyStop(t *testing.T) {
	f := qsortFactory(t, sims.MaFINX86)
	cfg := windowCampaigns(t, sims.MaFINX86, f, 15, 41)
	cfg.Campaigns = cfg.Campaigns[:1] // rf.int only
	cfg.DisableEarlyStop = true

	run := func(window bool) (*core.CampaignResult, telemetry.Snapshot) {
		col := telemetry.New()
		c := cfg
		if window {
			c = withWindow(cfg)
		}
		res, err := core.RunConfig(c, resolveTo(f), core.Attach{Telemetry: col})
		if err != nil {
			t.Fatal(err)
		}
		return res[0], col.Snapshot()
	}
	full, _ := run(false)
	windowed, snap := run(true)

	if snap.WindowExits == 0 || snap.FastSteps == 0 {
		t.Fatalf("no functional tails ran: %+v", snap)
	}
	t.Logf("mafin-x86 no-early-stop: %d/%d exits, fast-tier share %.1f%%",
		snap.WindowExits, snap.WindowedRuns, 100*snap.FastTierShare)
	same := 0
	for j := range full.Records {
		fc, _ := (core.Parser{}).Classify(full.Records[j])
		wc, _ := (core.Parser{}).Classify(windowed.Records[j])
		if fc == wc {
			same++
		} else {
			t.Logf("mask %d: window-off %s, window-on %s", j, fc, wc)
		}
	}
	if same*10 < len(full.Records)*7 {
		t.Errorf("only %d/%d masks classify identically (want >= 70%%)", same, len(full.Records))
	}
}

// TestWindowVerifyAgrees runs the differential guard itself: a windowed
// campaign with -window-verify re-simulates a sample fully
// cycle-accurately from the same window entries, and the matrix fails on
// any outcome-class disagreement. Zero disagreements is the acceptance
// bar of the window-exit proof.
func TestWindowVerifyAgrees(t *testing.T) {
	f := qsortFactory(t, sims.GeFINARM)
	cfg := withWindow(windowCampaigns(t, sims.GeFINARM, f, 20, 23))
	cfg.WindowVerify = 6
	col := telemetry.New()
	if _, err := core.RunConfig(cfg, resolveTo(f), core.Attach{Telemetry: col}); err != nil {
		t.Fatalf("window-verify: %v", err)
	}
	if snap := col.Snapshot(); snap.WindowExits == 0 {
		t.Fatalf("no run exited its window — the guard verified nothing: %+v", snap)
	}
}

// TestWindowComposesWithPruneLadderResume is the composition
// differential: detail-window execution stacked with liveness pruning
// (plus its verify guard), a checkpoint ladder, and a journal resumed
// mid-campaign must reproduce the uninterrupted windowed run's records
// and injection trace byte-identically.
func TestWindowComposesWithPruneLadderResume(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	cfg := withWindow(windowCampaigns(t, "gefin-x86", f, 25, 17))
	cfg.UseCheckpoint, cfg.CheckpointLadder = true, 3
	cfg.Prune, cfg.PruneVerify = true, 2
	cfg.WindowVerify = 3
	run := func(path string, resume bool) ([]*core.CampaignResult, []byte, telemetry.Snapshot) {
		j, err := fault.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		col := telemetry.New()
		trace := telemetry.NewTraceSink()
		col.AddSink(trace)
		res, err := core.RunConfig(cfg, resolveTo(f), core.Attach{Telemetry: col, Journal: j, Resume: resume})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes(), col.Snapshot()
	}

	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.journal.jsonl")
	resPath := filepath.Join(dir, "resumed.journal.jsonl")
	ref, refTrace, refSnap := run(refPath, false)
	if refSnap.WindowExits == 0 {
		t.Fatalf("composed campaign never exited a window: %+v", refSnap)
	}

	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(resPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	total := strings.Count(string(data), "\n")
	if total < 2 {
		t.Fatalf("reference journal has only %d lines", total)
	}
	truncateLines(t, resPath, total/2)

	got, gotTrace, _ := run(resPath, true)
	for s := range ref {
		if !reflect.DeepEqual(got[s].Records, ref[s].Records) {
			t.Fatalf("campaign %d: resumed windowed records differ from reference", s)
		}
	}
	if !bytes.Equal(gotTrace, refTrace) {
		t.Fatalf("resumed windowed trace differs from the uninterrupted trace")
	}
}
