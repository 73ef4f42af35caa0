package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/svc/api"
)

// The five structures of the paper's figures.
var paperStructures = []string{"rf.int", "l1d.data", "l1i.data", "l2.data", "lsq.data"}

// workload is one benchmark workload: a campaign config derived from the
// seed, and the public path its timed campaigns go through.
type workload struct {
	name string
	// viaService submits the timed campaigns over /v1 to the in-process
	// service and its worker fleet; otherwise they call core.RunConfig.
	viaService bool
	// options are the artifact knobs of a /v1 submission of the config.
	options api.SubmitOptions
	config  func(seed int64, tiny bool) core.CampaignConfig
}

var workloads = []workload{
	{
		// Three tools × two short kernels × the five paper structures,
		// random transients. Almost every mask is pruned dead at plan
		// time, so the plan layer (golden, ladder, profiles, signature)
		// and the service layer (lease, merge, journal, finalize) carry
		// the cost.
		name:       "matrix-svc",
		viaService: true,
		options:    api.SubmitOptions{Journal: true, Trace: true},
		config: func(seed int64, tiny bool) core.CampaignConfig {
			tools, kernels, structures, n := []string{"mafin-x86", "gefin-x86", "gefin-arm"}, []string{"djpeg", "cjpeg"}, paperStructures, 40
			if tiny {
				tools, kernels, structures, n = tools[1:], kernels[:1], []string{"rf.int", "l1d.data"}, 6
			}
			return core.CampaignConfig{
				Campaigns: cells(tools, kernels, structures), Injections: n, Seed: seed,
				Workers: 1, Prune: true, UseCheckpoint: true, CheckpointLadder: 3, Divergence: true,
			}
		},
	},
	{
		// gem5 x86 and ARM (both ISAs) × qsort × rf.int+l1d.data, faults
		// on live entries only. About half the masks survive pruning;
		// each survivor runs functional fast-forward, a short detailed
		// window and a functional tail. marss is left to the other
		// workloads: some of its l1d.data faults never settle, so their
		// window never exits, and the handful of long cycle-accurate runs
		// this leaves per campaign (9 to 23 runs over 50 ms in 300 masks on
		// a 2-vCPU Xeon) makes the campaign's cost swing with the seed.
		name: "window-live",
		config: func(seed int64, tiny bool) core.CampaignConfig {
			n := 600
			if tiny {
				n = 20
			}
			return core.CampaignConfig{
				Campaigns:  cells([]string{"gefin-x86", "gefin-arm"}, []string{"qsort"}, []string{"rf.int", "l1d.data"}),
				Injections: n, Seed: seed, Workers: 2, LiveOnly: true,
				Prune: true, UseCheckpoint: true, CheckpointLadder: 3,
				DetailWindow: true, WindowPre: 2000, WindowPost: 1000,
			}
		},
	},
	{
		// Three tools × djpeg × rf.int+l1d.data, live entries only,
		// no prune, ladder or window, and early stop off: every mask is a
		// whole cycle-accurate run with its fault armed, so campaign cost
		// does not swing with how many masks a seed lets stop early.
		name: "detail-full",
		config: func(seed int64, tiny bool) core.CampaignConfig {
			n := 20
			if tiny {
				n = 2
			}
			return core.CampaignConfig{
				Campaigns:  cells([]string{"mafin-x86", "gefin-x86", "gefin-arm"}, []string{"djpeg"}, []string{"rf.int", "l1d.data"}),
				Injections: n, Seed: seed, Workers: 2, LiveOnly: true, DisableEarlyStop: true,
			}
		},
	},
}

func cells(tools, kernels, structures []string) []core.CampaignCell {
	var out []core.CampaignCell
	for _, t := range tools {
		for _, k := range kernels {
			for _, s := range structures {
				out = append(out, core.CampaignCell{Tool: t, Benchmark: k, Structure: s})
			}
		}
	}
	return out
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
