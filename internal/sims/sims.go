// Package sims wires the three evaluated tool configurations of the
// paper — MaFIN-x86, GeFIN-x86 and GeFIN-ARM (Table II) — to simulator
// factories the injection campaign controller can consume.
package sims

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/gem5"
	"repro/internal/marss"
	"repro/internal/workload"
)

// Tool names, matching the labels of the paper's figures.
const (
	MaFINX86 = "mafin-x86"
	GeFINX86 = "gefin-x86"
	GeFINARM = "gefin-arm"
)

// Tools returns the three configurations in the paper's bar order
// (M-x86, G-x86, G-ARM).
func Tools() []string { return []string{MaFINX86, GeFINX86, GeFINARM} }

// ShortLabel maps a tool name to the paper's bar label.
func ShortLabel(tool string) string {
	switch tool {
	case MaFINX86:
		return "M-x86"
	case GeFINX86:
		return "G-x86"
	case GeFINARM:
		return "G-ARM"
	default:
		return tool
	}
}

// Resolve is the production core.Resolver: the simulator factory of a
// {tool, benchmark} cell, through this registry and the workload table.
func Resolve(tool, benchmark string) (core.Factory, error) {
	w, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	return Factory(tool, w)
}

// Factory builds a simulator factory for one tool running one benchmark.
// The image is linked once and shared; every factory call boots a fresh
// machine.
func Factory(tool string, w workload.Workload) (core.Factory, error) {
	switch tool {
	case MaFINX86:
		img, err := w.Image(asm.TargetCISC)
		if err != nil {
			return nil, err
		}
		return func() core.Simulator { return marss.New(marss.DefaultConfig(), img) }, nil
	case GeFINX86:
		img, err := w.Image(asm.TargetCISC)
		if err != nil {
			return nil, err
		}
		return func() core.Simulator { return gem5.New(gem5.DefaultConfig(gem5.ISAX86), img) }, nil
	case GeFINARM:
		img, err := w.Image(asm.TargetRISC)
		if err != nil {
			return nil, err
		}
		return func() core.Simulator { return gem5.New(gem5.DefaultConfig(gem5.ISAARM), img) }, nil
	default:
		return nil, fmt.Errorf("sims: unknown tool %q (have %v)", tool, Tools())
	}
}
