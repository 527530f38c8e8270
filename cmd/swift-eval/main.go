// Command swift-eval runs the repository's evaluations: the
// failure-scenario matrix (the default) and the SWIFT paper's tables
// and figures.
//
// -exp selects what runs, as a comma-separated list:
//
//   - matrix (the default) runs a named failure-scenario matrix through
//     the packet-level scenario engine and writes the JSON loss report.
//     Every scenario builds a routed topology, injects a failure,
//     replays the resulting BGP bursts into a fleet of SWIFT engines,
//     and forwards a synthetic flow set through the real two-stage FIB
//     at every virtual-time tick — scoring packets lost with SWIFT's
//     fast reroute against a vanilla router converging one FIB write at
//     a time on the same stream.
//   - table1, fig2a, fig2b, fig6, sim-localization, table2, fig7, fig8,
//     rules, safety, fig9, ablate-weights and ablate-trigger regenerate
//     one paper experiment each, printed in the paper's shape; all runs
//     every one of them (not the matrix). They run in that order
//     whatever order -exp names them in.
//
// -mode selects the matrix fleet's inference mode: "per-peer" is
// classic SWIFT (each session infers and acts alone), "fused" shares
// one evidence aggregator across the fleet (cross-peer corroboration,
// conflict vetoes and verdict pre-triggering), and "both" runs the two
// on the same seed and prints the per-family comparison table.
//
// Every run is deterministic: the same flags produce byte-identical
// stdout and -o report. Wall-clock timings go to stderr only.
//
//	swift-eval -matrix default -seed 1 -o report.json
//	swift-eval -matrix default -seed 1 -mode both
//	swift-eval -list
//	swift-eval -exp all                 # every paper experiment, default scale
//	swift-eval -exp table1,fig9 -prefixes 290000
//	swift-eval -exp fig6 -ases 1000 -sessions 213 -evalsessions 8
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/experiments"
	"swift/internal/scenario"
	"swift/internal/trace"
)

// paperRun is the shared input of the paper experiments: the synthetic
// capture month and the bursty sessions replayed through the pipeline.
type paperRun struct {
	seed               int64
	ds                 *trace.Dataset
	sess               []trace.Session
	minBurst, prefixes int
}

// paperExperiments lists the paper's experiments in output order.
// Only table1 and fig9 run without the generated dataset.
var paperExperiments = []struct {
	name string
	run  func(p *paperRun) fmt.Stringer
}{
	{"table1", func(p *paperRun) fmt.Stringer { return experiments.Table1(nil, p.seed) }},
	{"fig2a", func(p *paperRun) fmt.Stringer { return experiments.Fig2a(p.ds, p.seed) }},
	{"fig2b", func(p *paperRun) fmt.Stringer { return experiments.Fig2b(p.ds) }},
	{"fig6", func(p *paperRun) fmt.Stringer {
		return twoResults{
			experiments.Fig6(p.ds, p.sess, p.minBurst, false),
			experiments.Fig6(p.ds, p.sess, p.minBurst, true),
		}
	}},
	{"sim-localization", func(p *paperRun) fmt.Stringer {
		return twoResults{
			prefixed{"clean:\n", experiments.SimLocalization(p.ds, p.sess, p.minBurst, 200, 0)},
			prefixed{"with 1000 noise withdrawals:\n", experiments.SimLocalization(p.ds, p.sess, p.minBurst, 200, 1000)},
		}
	}},
	{"table2", func(p *paperRun) fmt.Stringer { return experiments.Table2(p.ds, p.sess, p.minBurst) }},
	{"fig7", func(p *paperRun) fmt.Stringer { return experiments.Fig7(p.ds, p.sess, p.minBurst, nil) }},
	{"fig8", func(p *paperRun) fmt.Stringer { return experiments.Fig8(p.ds, p.sess, p.minBurst) }},
	{"rules", func(p *paperRun) fmt.Stringer { return experiments.Rules(p.ds, p.sess, p.minBurst, 16) }},
	{"safety", func(p *paperRun) fmt.Stringer { return experiments.Safety(p.ds, p.sess, p.minBurst) }},
	{"fig9", func(p *paperRun) fmt.Stringer { return experiments.Fig9(p.prefixes, p.seed) }},
	{"ablate-weights", func(p *paperRun) fmt.Stringer { return experiments.AblateWeights(p.ds, p.sess, p.minBurst) }},
	{"ablate-trigger", func(p *paperRun) fmt.Stringer { return experiments.AblateTrigger(p.ds, p.sess, p.minBurst) }},
}

func main() {
	exp := flag.String("exp", "matrix", "comma-separated experiments: matrix, a paper experiment or all (see doc)")
	seed := flag.Int64("seed", 1, "random seed (same seed, same output)")
	// Scenario-matrix flags.
	matrix := flag.String("matrix", "default", "scenario matrix to run")
	mode := flag.String("mode", scenario.ModePerPeer, "matrix evaluation mode: per-peer, fused or both")
	out := flag.String("o", "", "write the matrix JSON report to this file (default stdout only)")
	list := flag.Bool("list", false, "list matrix names and their scenarios, then exit")
	quiet := flag.Bool("q", false, "suppress the rendered matrix table")
	// Paper-experiment flags.
	ases := flag.Int("ases", 600, "topology size for trace experiments")
	sessions := flag.Int("sessions", 120, "collector sessions in the dataset")
	evalSess := flag.Int("evalsessions", 6, "sessions replayed through the full pipeline")
	failures := flag.Int("failures", 150, "failures over the capture month")
	maxPfx := flag.Int("maxprefixes", 20000, "largest origin's prefix count")
	prefixes := flag.Int("prefixes", 290000, "case-study burst size (fig9)")
	minBurst := flag.Int("minburst", 1500, "minimum burst size evaluated")
	flag.Parse()

	if *list {
		for _, name := range scenario.MatrixNames() {
			specs, err := scenario.Matrix(name, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s (%d scenarios)\n", name, len(specs))
			for _, s := range specs {
				fmt.Printf("  %s\n", s.Name)
			}
		}
		return
	}

	// Resolve -exp before running anything, so a typo fails fast.
	known := map[string]bool{"matrix": true, "all": true}
	for _, e := range paperExperiments {
		known[e.name] = true
	}
	want := map[string]bool{}
	for _, n := range strings.Split(*exp, ",") {
		if !known[n] {
			fatal(fmt.Errorf("unknown experiment %q", n))
		}
		want[n] = true
	}

	if want["matrix"] {
		runMatrix(*matrix, *seed, *mode, *out, *quiet)
	}

	p := &paperRun{seed: *seed, minBurst: *minBurst, prefixes: *prefixes}
	for _, e := range paperExperiments {
		if !want[e.name] && !want["all"] {
			continue
		}
		if p.ds == nil && e.name != "table1" && e.name != "fig9" {
			p.ds, p.sess = generateDataset(*seed, *ases, *sessions, *evalSess, *failures, *maxPfx, *minBurst)
		}
		start := time.Now()
		fmt.Println(e.run(p).String())
		fmt.Fprintf(os.Stderr, "[%s took %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

// runMatrix evaluates one scenario matrix and prints (and optionally
// writes) its report.
func runMatrix(matrix string, seed int64, mode, out string, quiet bool) {
	var render string
	var buf []byte
	start := time.Now()
	switch mode {
	case "both":
		cmp, err := experiments.CompareScenarioModes(matrix, seed)
		if err != nil {
			fatal(err)
		}
		render = experiments.RenderModeComparison(cmp)
		if out != "" {
			if buf, err = cmp.JSON(); err != nil {
				fatal(err)
			}
		}
	default:
		rep, err := experiments.RunScenarioMatrixMode(matrix, seed, mode)
		if err != nil {
			fatal(err)
		}
		render = experiments.RenderScenarioMatrix(rep)
		if out != "" {
			if buf, err = rep.JSON(); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "swift-eval: matrix %q (%s) evaluated in %s\n",
		matrix, mode, time.Since(start).Round(time.Millisecond))
	if !quiet {
		fmt.Print(render)
	}
	if out != "" {
		buf = append(buf, '\n')
		if err := writeFileAtomic(out, buf); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "swift-eval: report written to %s\n", out)
	}
}

// generateDataset synthesizes the capture month and picks up to
// evalSess distinct sessions that observe bursts of at least minBurst.
func generateDataset(seed int64, ases, sessions, evalSess, failures, maxPfx, minBurst int) (*trace.Dataset, []trace.Session) {
	fmt.Fprintf(os.Stderr, "generating dataset: %d ASes, %d sessions, %d failures...\n",
		ases, sessions, failures)
	start := time.Now()
	ds := trace.Generate(trace.Config{
		NumASes:           ases,
		AvgDegree:         8.4,
		Sessions:          sessions,
		Days:              30,
		Failures:          failures,
		MaxPrefixes:       maxPfx,
		PopularASes:       15,
		ASFailureFraction: 0.15,
		Timing:            bgpsim.DefaultTiming(seed),
		Seed:              seed,
	})
	fmt.Fprintf(os.Stderr, "dataset ready in %v (%d prefixes in the table)\n",
		time.Since(start).Round(time.Millisecond), ds.Net.TotalPrefixes())
	var sess []trace.Session
	seen := map[trace.Session]bool{}
	for _, st := range ds.Census(minBurst) {
		if !seen[st.Session] && len(sess) < evalSess {
			seen[st.Session] = true
			sess = append(sess, st.Session)
		}
	}
	if len(sess) == 0 {
		fmt.Fprintln(os.Stderr, "warning: no sessions observe bursts at this scale")
	}
	return ds, sess
}

// twoResults prints two results back to back.
type twoResults [2]fmt.Stringer

func (t twoResults) String() string { return t[0].String() + "\n" + t[1].String() }

// prefixed prepends a label.
type prefixed struct {
	label string
	inner fmt.Stringer
}

func (p prefixed) String() string { return p.label + p.inner.String() }

// writeFileAtomic writes via a temp file in the target directory plus
// rename, so an interrupted run never leaves a truncated report for
// CI's byte-compare to trip over.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swift-eval:", err)
	os.Exit(1)
}
