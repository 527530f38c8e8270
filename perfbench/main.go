// Command perfbench is the repository benchmark: it drives the real
// SWIFT daemon stack (bmp.Station → controller.Fleet → swift.Engine,
// configured as `swiftd -bmp-listen` builds it) over loopback TCP, and
// the scenario evaluator in-process, and prints every metric by name
// and unit. README.md in this directory records why each workload
// exists and which end-to-end metric each per-layer metric should move.
//
//	bash perfbench/run.sh --workload bmp-burst --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 the run measures the workload untraced, then again with the
// benchmark's own wrappers and hooks recording spans, and the last line
// carries the per-layer metrics plus the tracing overhead. Spans are
// written to <out>/spans-<workload>-<seed>.json. The process exits
// non-zero, without a result line, when any output check fails.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// warmup runs each BMP workload's live traffic before the measured
// window opens: the first bursts after provisioning pay one-time costs
// (lazy lookup structures, cold caches) that a long-running daemon
// pays once, and they set reaction p99 on their own when timed.
const warmup = 2 * time.Second

// workload is one benchmark input mix.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"bmp-burst", "open-loop failure bursts over BMP: reaction time under sustained ingest (inference, reroute, encoding, FIB writes)", runBurst},
	{"bmp-churn", "closed-loop storms of 1-2 prefix path changes over one connection on a warm-restored full-table fleet: per-message ingest cost, no bursts", runChurn},
	{"scenario-matrix", "scenario.Build + Eval/EvalFused over four default matrices: poptrie forwarding, fusion and the packet-loss result", runMatrix},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string // scratch directory inside the checkout
}

// result is one workload run's outcome.
type result struct {
	attempted int64
	failed    int64
	problems  []string // output-check failures; any makes the run incorrect
	warnings  []string // validity flags that do not fail the run
	metrics   map[string]metric
	info      map[string]any // provenance and sizing for the report line
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, info: map[string]any{}}
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) warn(format string, args ...any) {
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: bmp-burst, bmp-churn or scenario-matrix")
	seed := flag.Int64("seed", 1, "input seed (same seed, same inputs)")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 records spans and per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "scratch and span output directory")
	commit := flag.String("commit", "none", "source commit, when known")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload bmp-burst|bmp-churn|scenario-matrix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, out: *out}
	res, err := w.run(cfg)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	prov := provenance(*commit)
	prov["workload"] = w.name
	prov["why"] = w.why
	prov["seed"] = *seed
	prov["seconds"] = *seconds
	prov["trace"] = cfg.trace
	for k, v := range res.info {
		prov[k] = v
	}
	prov["warnings"] = res.warnings
	prov["problems"] = res.problems
	prov["attempted"] = res.attempted
	prov["failed"] = res.failed
	for _, msg := range res.warnings {
		fmt.Fprintf(os.Stderr, "perfbench: %s: warning: %s\n", w.name, msg)
	}
	report, _ := json.Marshal(map[string]any{"report": prov, "metrics": res.metrics})
	fmt.Println(string(report))
	if len(res.problems) > 0 || res.failed > 0 {
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, p)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed\n", w.name, res.failed, res.attempted)
		os.Exit(1)
	}
	last, _ := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	fmt.Println(string(last))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// provenance records the host and build a result was measured on.
func provenance(commit string) map[string]any {
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      cpuModel(),
		"go_version":     runtime.Version(),
		"commit":         commit,
		"source_sha256":  sourceDigest(),
		"loopback_tcp":   true,
		"measured_utc":   time.Now().UTC().Format(time.RFC3339),
		"peak_rss_mb":    peakRSSMB(),
		"result_version": 1,
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
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

// sourceDigest hashes the checkout's Go sources and module files, so a
// result identifies the code it measured even where no commit is known.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// quantile returns the q-quantile of xs by nearest rank (xs is sorted
// in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// numGC is the number of completed collections so far.
func numGC() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
