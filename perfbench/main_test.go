package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestTinyWorkloads runs every workload at tiny size, untraced and
// traced, end to end, and checks that each run passes its output check
// and prints exactly the metrics BENCHMARK.json declares for it.
func TestTinyWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	units := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := make(map[string]string)
		for _, x := range ms {
			m[x.Name] = x.Unit
		}
		return m
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Fatal(err)
		}
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.Name, "-tiny", "-seed", "3", "-seconds", "0.1",
					"-trace", trace, "-work", t.TempDir(), "-root", ".."}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("output check failed: %+v\n%s", res, stdout.String())
				}
				want := units(spec.EndToEnd)
				if trace == "1" {
					want = units(spec.PerLayer)
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s not printed", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, m.Unit, unit)
					}
				}
				var extra []string
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						extra = append(extra, name)
					}
				}
				sort.Strings(extra)
				if len(extra) > 0 {
					t.Errorf("metrics not in BENCHMARK.json: %v", extra)
				}
				// failed_frac is 0 on a correct run, so it is printed as an
				// info line and carried by attempted/failed, not as a metric.
				if trace == "0" && !strings.Contains(stdout.String(), "info failed_frac ") {
					t.Errorf("failed_frac not printed:\n%s", stdout.String())
				}
				if !strings.HasPrefix(lines[0], "env {") {
					t.Errorf("first line is not the environment stamp: %q", lines[0])
				}
			})
		}
	}
}
