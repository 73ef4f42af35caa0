// Sensitivity: the paper notes (footnote 4) that the injectors support
// studies "for different sizes and organizations of the hardware
// structures". This example sweeps the L1D capacity of the Gem5-like
// machine and measures how the cache's vulnerability scales: smaller
// caches hold a larger live fraction, so a random fault is more likely
// to hit program data — structure size is a first-order reliability
// knob, which is exactly why early design-stage injection matters. The
// sweep is one core.CampaignConfig with a cell per cache size; a
// Resolver closure hands each cell its resized machine.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/gem5"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 120, "injections per cache size")
	bench := flag.String("bench", "qsort", "benchmark")
	flag.Parse()

	w, err := workload.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	img, err := w.Image(asm.TargetCISC)
	if err != nil {
		log.Fatal(err)
	}

	// One cell per L1D size; the resolver hands each cell the factory of
	// its resized machine, and the config generates the same transient
	// population (seed 7) against each golden run.
	sizes := []int{8, 16, 32, 64}
	factories := make(map[string]core.Factory, len(sizes))
	var cells []core.CampaignCell
	for _, kb := range sizes {
		cfg := gem5.DefaultConfig(gem5.ISAX86)
		cfg.L1D.Size = kb << 10
		tool := fmt.Sprintf("gefin-x86-l1d%dk", kb)
		factories[tool] = func() core.Simulator { return gem5.New(cfg, img) }
		cells = append(cells, core.CampaignCell{Tool: tool, Benchmark: *bench, Structure: "l1d.data"})
	}
	resolve := func(tool, _ string) (core.Factory, error) { return factories[tool], nil }
	results, err := core.RunConfig(core.CampaignConfig{Campaigns: cells, Injections: *n, Seed: 7}, resolve, core.Attach{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("L1D size sweep on GeFIN-x86 / %s (%d transient injections each)\n\n", *bench, *n)
	fmt.Printf("%8s %10s %10s %10s %8s\n", "L1D", "golden cyc", "masked", "SDC", "vuln")
	for i, res := range results {
		b := core.Parser{}.ParseAll(res.Records)
		fmt.Printf("%6dKB %10d %9.2f%% %9.2f%% %7.2f%%\n",
			sizes[i], res.Golden.Cycles, b.Pct(core.ClassMasked), b.Pct(core.ClassSDC), b.Vulnerability())
	}
	fmt.Println("\n→ halving the cache roughly doubles the live fraction a random fault can hit;")
	fmt.Println("  capacity vs. vulnerability is the protection trade-off the paper motivates.")
}
