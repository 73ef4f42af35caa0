package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

// ratio is a/b, or 0 when b is 0 (a rate over no attempts).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // samples, spread and bases, for the human-readable line
}

// report collects the metrics of one run in print order.
type report struct {
	metrics []metric
}

func (r *report) add(name string, value float64, unit, note string, args ...any) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: fmt.Sprintf(note, args...)})
}

// addSamples reports the median of xs, noting every sample.
func (r *report) addSamples(name string, xs []float64, unit string) {
	r.add(name, median(xs), unit, "median of n=%d: %.4g", len(xs), xs)
}

func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-28s %14.6g %-10s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// environment is the stamp printed with every result.
type environment struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Size       string `json:"size"`
}

func stampEnvironment(root string) environment {
	return environment{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the source the benchmark was built from: the git HEAD
// when root is a work tree, else a digest of every Go source and module
// file under root (a benchmark checkout need not be a git repository).
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return "git:" + strings.TrimSpace(string(b))
			}
		} else {
			return "git:" + ref
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
