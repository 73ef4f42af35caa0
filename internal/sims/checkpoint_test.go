package sims

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestCheckpointRestoreCompletesIdentically: a machine restored from a
// mid-run drained checkpoint must finish the program with exactly the
// output of a straight run — on every tool configuration.
func TestCheckpointRestoreCompletesIdentically(t *testing.T) {
	w, err := workload.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range Tools() {
		factory, err := Factory(tool, w)
		if err != nil {
			t.Fatal(err)
		}
		straight := factory().Run(1 << 62)
		if straight.Status != core.RunCompleted {
			t.Fatalf("%s: straight run %v", tool, straight.Status)
		}

		base := factory()
		ck, ok := base.(core.Checkpointer)
		if !ok {
			t.Fatalf("%s does not implement Checkpointer", tool)
		}
		reached, finished, err := ck.RunTo(straight.Cycles / 3)
		if err != nil || finished {
			t.Fatalf("%s: RunTo: reached=%d finished=%v err=%v", tool, reached, finished, err)
		}
		if reached < straight.Cycles/3 {
			t.Fatalf("%s: reached %d < target %d", tool, reached, straight.Cycles/3)
		}
		cp, err := ck.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", tool, err)
		}

		// Restore into two fresh machines: both must complete with the
		// straight-run output, and identically to each other.
		var restored []core.RunResult
		for i := 0; i < 2; i++ {
			sim := factory()
			if err := sim.(core.Checkpointer).Restore(cp); err != nil {
				t.Fatalf("%s: restore: %v", tool, err)
			}
			res := sim.Run(1 << 62)
			if res.Status != core.RunCompleted {
				t.Fatalf("%s: restored run %v (%s)", tool, res.Status, res.AssertMsg)
			}
			if !bytes.Equal(res.Output, straight.Output) {
				t.Fatalf("%s: restored output differs from straight run", tool)
			}
			restored = append(restored, res)
		}
		if restored[0].Cycles != restored[1].Cycles {
			t.Fatalf("%s: restores not deterministic: %d vs %d cycles",
				tool, restored[0].Cycles, restored[1].Cycles)
		}
		// The checkpoint must also not mutate when restored (deep copy):
		// a third restore after two full runs must still work.
		sim := factory()
		if err := sim.(core.Checkpointer).Restore(cp); err != nil {
			t.Fatal(err)
		}
		if res := sim.Run(1 << 62); !bytes.Equal(res.Output, straight.Output) {
			t.Fatalf("%s: checkpoint state was mutated by earlier restores", tool)
		}
	}
}

// TestCheckpointRejectsForeignState pins the type safety of Restore.
func TestCheckpointRejectsForeignState(t *testing.T) {
	w, _ := workload.ByName("qsort")
	mf, _ := Factory(MaFINX86, w)
	gf, _ := Factory(GeFINX86, w)
	m := mf().(core.Checkpointer)
	if _, _, err := m.RunTo(5000); err != nil {
		t.Fatal(err)
	}
	cp, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := gf().(core.Checkpointer).Restore(cp); err == nil {
		t.Fatal("gem5 accepted a marss checkpoint")
	}
}

// TestCampaignWithCheckpointMatchesOutcomeMix: a checkpointed campaign
// classifies the same way as a boot-run campaign at the aggregate level
// (identical masks, the same machine state at injection time for every
// fault past the checkpoint would be ideal; we assert the golden output
// check still holds and every record lands in a defined state).
func TestCampaignWithCheckpointMatchesOutcomeMix(t *testing.T) {
	run := func(useCP bool) core.Breakdown {
		res, err := core.RunConfig(core.CampaignConfig{
			Campaigns:  []core.CampaignCell{{Tool: GeFINX86, Benchmark: "qsort", Structure: "rf.int"}},
			Injections: 24, Seed: 9, UseCheckpoint: useCP, Workers: 2,
		}, Resolve, core.Attach{})
		if err != nil {
			t.Fatal(err)
		}
		return core.Parser{}.ParseAll(res[0].Records)
	}
	plain := run(false)
	ckpt := run(true)
	if plain.Total != ckpt.Total {
		t.Fatalf("totals differ: %d vs %d", plain.Total, ckpt.Total)
	}
	// The masked counts may differ by a run or two at a drained
	// checkpoint boundary, but not wholesale.
	d := plain.Counts[core.ClassMasked] - ckpt.Counts[core.ClassMasked]
	if d < -4 || d > 4 {
		t.Fatalf("checkpointing changed the masked count too much: %v vs %v", plain.Counts, ckpt.Counts)
	}
}
