package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sims"
)

func TestFigureByID(t *testing.T) {
	f, err := FigureByID(3)
	if err != nil || f.Structure != "l1d.data" {
		t.Fatalf("fig 3: %+v %v", f, err)
	}
	if _, err := FigureByID(7); err == nil {
		t.Fatal("figure 7 accepted")
	}
	if len(Figures) != 5 {
		t.Fatalf("want 5 figures, got %d", len(Figures))
	}
}

func TestRunFigureMini(t *testing.T) {
	opt := Options{
		Config:     core.CampaignConfig{Injections: 12, Seed: 7, Workers: 2},
		Benchmarks: []string{"qsort"},
	}
	fd, err := RunFigure(Figures[4], opt, nil) // Fig 6: LSQ
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Cells) != 3 {
		t.Fatalf("cells %d, want 3 (one per tool)", len(fd.Cells))
	}
	for _, c := range fd.Cells {
		if c.Breakdown.Total != 12 {
			t.Fatalf("%s: total %d", c.Tool, c.Breakdown.Total)
		}
		if c.Golden.Cycles == 0 {
			t.Fatalf("%s: missing golden", c.Tool)
		}
	}
	if _, ok := fd.CellFor("qsort", sims.MaFINX86); !ok {
		t.Fatal("missing MaFIN cell")
	}
	avg := fd.Average(sims.GeFINX86)
	if avg.Total != 12 {
		t.Fatalf("average total %d", avg.Total)
	}
	var buf bytes.Buffer
	fd.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 6", "qsort", "M-x86", "G-x86", "G-ARM", "AVERAGE"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestGoldenStatsAndRemarks(t *testing.T) {
	opt := Options{Benchmarks: []string{"qsort", "sha", "fft"}}
	stats, err := GoldenStats(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("stats benches: %d", len(stats))
	}
	// Aggregated across benchmarks, the MARSS-like tool must execute
	// more loads than the Gem5-like tool on the same binaries
	// (aggressive issue + replays — Remark 3's direction; the paper
	// notes the trend holds for most, not all, individual benchmarks).
	var m, g uint64
	for _, b := range []string{"qsort", "sha", "fft"} {
		m += stats[b][sims.MaFINX86]["issued_loads"]
		g += stats[b][sims.GeFINX86]["issued_loads"]
	}
	if m <= g {
		t.Errorf("aggregate: MaFIN issued %d loads <= GeFIN %d — aggressive issue not visible", m, g)
	}
	var buf bytes.Buffer
	RenderRemarkStats(&buf, stats)
	if !strings.Contains(buf.String(), "issued loads") {
		t.Errorf("remark render:\n%s", buf.String())
	}
}

func TestRenderSamplingTable(t *testing.T) {
	var buf bytes.Buffer
	RenderSamplingTable(&buf)
	for _, want := range []string{"1843", "663", "2.88"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("sampling table missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRenderStructuresTable(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderStructuresTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"MaFIN-x86", "GeFIN-x86", "GeFIN-arm", "l1d.data", "btb.ind.target"} {
		if !strings.Contains(out, want) {
			t.Errorf("structures table missing %q", want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	if len(o.benchmarks()) != 10 || len(o.tools()) != 3 || o.injections() != 200 {
		t.Fatalf("defaults: %v %v %d", o.benchmarks(), o.tools(), o.injections())
	}
}

func TestCampaignPersistsToLogs(t *testing.T) {
	repo, err := core.NewLogsRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Config:     core.CampaignConfig{Injections: 5, Workers: 2},
		Benchmarks: []string{"qsort"}, Tools: []string{sims.GeFINX86}, Logs: repo,
	}
	if _, err := RunFigure(Figures[0], opt, nil); err != nil { // Fig 2: rf.int
		t.Fatal(err)
	}
	keys, err := repo.Campaigns()
	if err != nil || len(keys) != 1 {
		t.Fatalf("campaigns: %v %v", keys, err)
	}
	back, err := repo.Load(keys[0])
	if err != nil || len(back.Records) != 5 {
		t.Fatalf("load: %v %v", back, err)
	}
	// The golden header names the tool as the campaign key does.
	if back.Golden.Tool != sims.GeFINX86 {
		t.Fatalf("golden header tool %q, want the registry name %q", back.Golden.Tool, sims.GeFINX86)
	}
}

func TestLiveOnlyFigure(t *testing.T) {
	opt := Options{
		Config:     core.CampaignConfig{Injections: 10, Seed: 2, Workers: 2, LiveOnly: true},
		Benchmarks: []string{"qsort"}, Tools: []string{sims.GeFINX86},
	}
	fd, err := RunFigure(Figures[3], opt, nil) // Fig 5: L2
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Cells) != 1 || fd.Cells[0].Breakdown.Total != 10 {
		t.Fatalf("cells: %+v", fd.Cells)
	}
	// Live-only L2 sampling should find at least some non-masked runs
	// where uniform sampling finds none — but with n=10 we only assert
	// it executed; the conditional numbers are recorded in EXPERIMENTS.
}
