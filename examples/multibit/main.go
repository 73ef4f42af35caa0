// Multibit: the extension studies the paper supports beyond its
// single-bit transient evaluation (§III.A) — permanent and intermittent
// faults, double-bit faults within one structure, and simultaneous
// faults in two different structures, all on the same benchmark and
// tool so the fault models can be compared directly. Each study is one
// explicit-mask cell of a single core.CampaignConfig.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
)

func main() {
	n := flag.Int("n", 100, "injections per campaign")
	bench := flag.String("bench", "sha", "benchmark")
	tool := flag.String("tool", "gefin-x86", "tool configuration")
	flag.Parse()

	factory, err := sims.Resolve(*tool, *bench)
	if err != nil {
		log.Fatal(err)
	}
	// The golden run memoized here is the one the campaigns reuse.
	cache := core.NewGoldenCache()
	golden, err := cache.Golden(*tool, *bench, factory)
	if err != nil {
		log.Fatal(err)
	}
	geom := func(name string) (int, int) {
		entries, bits, _, err := cache.Geometry(*tool, *bench, factory, name)
		if err != nil {
			log.Fatal(err)
		}
		return entries, bits
	}
	l1dE, l1dB := geom("l1d.data")
	rfE, rfB := geom("rf.int")

	// Every study is one explicit-mask cell of a single config, labelled
	// by its campaign name, so all of them share one worker pool.
	var cells []core.CampaignCell
	add := func(label string, masks []fault.Mask) {
		cells = append(cells, core.CampaignCell{Tool: *tool, Benchmark: *bench, Structure: label, Masks: masks})
	}

	gen := func(structure string, entries, bits int, model fault.Model, sites int, adjacent bool, seed int64) []fault.Mask {
		masks, err := fault.Generate(fault.GeneratorSpec{
			Structure: structure, Entries: entries, BitsPerEntry: bits,
			MaxCycle: golden.Cycles, Model: model, Count: *n,
			Seed: seed, SitesPerMask: sites, Adjacent: adjacent,
			Duration: golden.Cycles / 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		return masks
	}

	add("L1D transient single-bit", gen("l1d.data", l1dE, l1dB, fault.ModelTransient, 1, false, 1))
	add("L1D transient double-bit", gen("l1d.data", l1dE, l1dB, fault.ModelTransient, 2, false, 2))
	add("L1D transient burst (4 adjacent)", gen("l1d.data", l1dE, l1dB, fault.ModelTransient, 4, true, 7))
	add("L1D intermittent", gen("l1d.data", l1dE, l1dB, fault.ModelIntermittent, 1, false, 3))
	add("L1D permanent", gen("l1d.data", l1dE, l1dB, fault.ModelPermanent, 1, false, 4))

	// Simultaneous faults in two structures: pairwise merge of one
	// L1D population and one register-file population.
	a := gen("l1d.data", l1dE, l1dB, fault.ModelTransient, 1, false, 5)
	b := gen("rf.int", rfE, rfB, fault.ModelTransient, 1, false, 6)
	merged, err := fault.MultiStructure(a, b)
	if err != nil {
		log.Fatal(err)
	}
	add("L1D + rf.int simultaneous", merged)

	results, err := core.RunConfig(core.CampaignConfig{Campaigns: cells}, sims.Resolve, core.Attach{Golden: cache})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-model study: %s on %s, %d injections each\n\n", *bench, golden.Tool, *n)
	for i, res := range results {
		fmt.Printf("%-34s %s\n", cells[i].Structure, core.Parser{}.ParseAll(res.Records))
	}
}
