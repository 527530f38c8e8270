package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"swift/internal/experiments"
	"swift/internal/netaddr"
	"swift/internal/scenario"
	swiftengine "swift/internal/swift"
)

// matrixSeeds are the default-matrix seeds every run evaluates, from
// the set the repository's tests pin SWIFT-beats-vanilla on. They are
// fixed, not drawn from the run seed, because swift_lost_ratio is a
// pure function of the matrices and swung from 0.11 to 0.28 between
// runs of three seed-derived matrices; fixed, it is the repository's
// packet-loss result on every run, and some seeds' matrices cannot be
// built at all (no viable failure). The run seed orders the
// evaluations. Four matrices keep Eval+EvalFused near fifteen seconds on
// a 2-vCPU host.
var matrixSeeds = []int64{1, 2, 3, 7}

const (
	matrixName    = "default"
	forwardBurst  = 256
	forwardProbes = 1 << 16
)

type matrixRun struct {
	builds    []float64 // s, one per matrix
	evalStart time.Time
	evalDur   time.Duration
	perPeer   time.Duration
	fused     time.Duration
	perScen   []float64 // ms, every Eval and EvalFused call
	callRates []float64 // scenario events per second, every call
	startUs   []float64 // each call's start, µs after the evaluation began
	events    int64
	swiftLost int64
	bgpLost   int64
	decisions int
	external  int
	vetoed    int
	heap      float64
	problems  []string
	attempted int64
	failed    int64
	built     [][]*scenario.Scenario
}

func runMatrix(cfg runConfig) (*result, error) {
	res := newResult()
	res.info["matrix"] = matrixName
	seeds := matrixSeeds
	res.info["matrix_seeds"] = seeds
	base, err := measureMatrix(seeds, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed, res.problems = base.attempted, base.failed, base.problems
	res.info["scenarios"] = len(base.perScen) / 2
	if !cfg.trace {
		res.set("setup_s", median(slices.Clone(base.builds)), "s")
		res.set("reaction_p50_ms", median(slices.Clone(base.perScen)), "ms")
		res.info["reaction_p95_ms"] = quantile(slices.Clone(base.perScen), 0.95)
		res.info["reaction_p99_ms"] = quantile(slices.Clone(base.perScen), 0.99)
		res.set("ingest_events_per_s", median(slices.Clone(base.callRates)), "events/s")
		res.info["events_per_eval_s"] = float64(base.events) / base.evalDur.Seconds()
		res.set("eval_s", base.evalDur.Seconds(), "s")
		res.set("heap_mb", base.heap, "MB")
		res.set("swift_lost_ratio", ratio(float64(base.swiftLost), float64(base.bgpLost)), "ratio")
		res.info["build_samples_s"] = base.builds
		return res, nil
	}
	m, err := measureMatrix(seeds, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.attempted += m.attempted
	res.failed += m.failed
	res.problems = append(res.problems, m.problems...)
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	set("bgpsim.build_s", sum(m.builds), "s")
	set("scenario.eval_perpeer_s", m.perPeer.Seconds(), "s")
	set("scenario.eval_fused_s", m.fused.Seconds(), "s")
	set("fusion.external_decisions", float64(m.external), "count")
	set("fusion.vetoed", float64(m.vetoed), "count")
	set("swift.decisions", float64(m.decisions), "count")
	ns, err := forwardNsPerPacket(m.built[0][0], cfg.seed)
	if err != nil {
		return nil, err
	}
	set("dataplane.forward_ns_per_packet", ns, "ns")
	set("reaction.p99_ms", quantile(slices.Clone(m.perScen), 0.99), "ms")
	set("trace.overhead_pct", 100*ratio(m.evalDur.Seconds()-base.evalDur.Seconds(), base.evalDur.Seconds()), "%")
	res.metrics = fillLayers(out)
	tr := newTracer()
	for i, d := range m.perScen {
		tr.spans = append(tr.spans, span{ID: i + 1, Name: "scenario.eval", Start: m.startUs[i], End: m.startUs[i] + d*1e3})
	}
	return res, tr.writeSpans(cfg, "scenario-matrix", m.evalStart)
}

// measureMatrix builds every scenario of each seed's matrix (timed per
// matrix), evaluates each in both modes on this goroutine, in an order
// shuffled by runSeed (timed per call and in total), and checks that
// the assembled reports are byte-identical to what swift-eval writes
// for the same seed and mode.
func measureMatrix(seeds []int64, runSeed int64) (*matrixRun, error) {
	m := &matrixRun{}
	heapBefore := heapMB()
	for _, seed := range seeds {
		ss, err := scenario.Matrix(matrixName, seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var built []*scenario.Scenario
		for _, s := range ss {
			sc, err := scenario.Build(s)
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", s.Name, err)
			}
			built = append(built, sc)
		}
		m.builds = append(m.builds, time.Since(start).Seconds())
		m.built = append(m.built, built)
	}
	m.heap = heapMB() - heapBefore

	type job struct{ k, mode, i int }
	var jobs []job
	reports := make([][2][]*scenario.Report, len(seeds))
	for k := range seeds {
		for mode := 0; mode < 2; mode++ {
			reports[k][mode] = make([]*scenario.Report, len(m.built[k]))
			for i := range m.built[k] {
				jobs = append(jobs, job{k, mode, i})
			}
		}
	}
	rng := rand.New(rand.NewSource(runSeed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	evalStart := time.Now()
	m.evalStart = evalStart
	for _, j := range jobs {
		sc := m.built[j.k][j.i]
		start := time.Now()
		var r *scenario.Report
		var err error
		if j.mode == 0 {
			r, err = sc.Eval()
		} else {
			r, err = sc.EvalFused()
		}
		took := time.Since(start)
		m.attempted++
		if err != nil {
			m.failed++
			m.problems = append(m.problems, fmt.Sprintf("%s: %v", sc.Spec.Name, err))
			continue
		}
		m.perScen = append(m.perScen, ms(took))
		m.callRates = append(m.callRates, float64(r.Events)/took.Seconds())
		m.startUs = append(m.startUs, us(evalStart, start))
		if j.mode == 0 {
			m.perPeer += took
		} else {
			m.fused += took
		}
		reports[j.k][j.mode][j.i] = r
	}
	m.evalDur = time.Since(evalStart)
	if m.failed > 0 {
		return m, nil
	}

	for k, seed := range seeds {
		for mode, name := range []string{scenario.ModePerPeer, scenario.ModeFused} {
			rep := &scenario.MatrixReport{Matrix: matrixName, Mode: name, Seed: seed, Scenarios: reports[k][mode]}
			aggregate(rep)
			m.swiftLost += rep.SwiftLost
			m.bgpLost += rep.BGPLost
			for _, r := range rep.Scenarios {
				m.events += int64(r.Events)
				for _, p := range r.Peers {
					m.decisions += p.Decisions
					m.external += p.External
					m.vetoed += p.Vetoed
				}
			}
			// Output check: byte-identical to swift-eval's report.
			got, err := rep.JSON()
			if err != nil {
				return nil, err
			}
			ref, err := experiments.RunScenarioMatrixMode(matrixName, seed, name)
			if err != nil {
				return nil, err
			}
			want, err := ref.JSON()
			if err != nil {
				return nil, err
			}
			m.attempted++
			if !bytes.Equal(got, want) {
				m.failed++
				m.problems = append(m.problems, fmt.Sprintf("seed %d %s: report differs from swift-eval's", seed, name))
			}
		}
	}
	return m, nil
}

// aggregate folds per-scenario totals into a matrix report the way the
// scenario package does for swift-eval; the byte comparison against
// swift-eval's own report checks that it still does.
func aggregate(m *scenario.MatrixReport) {
	for _, r := range m.Scenarios {
		m.PacketsSent += r.PacketsSent
		m.SwiftLost += r.SwiftLost
		m.BGPLost += r.BGPLost
		if r.Remote {
			m.RemoteScenarios++
			m.RemoteSwiftLost += r.SwiftLost
			m.RemoteBGPLost += r.BGPLost
			if r.SwiftLost < r.BGPLost {
				m.RemoteSwiftWins++
			}
		}
	}
}

// forwardNsPerPacket provisions one engine on a scenario's first
// session (its table, the other neighbors as alternates) and times
// FIB.ForwardBatch over addresses sampled from the table's prefixes.
func forwardNsPerPacket(sc *scenario.Scenario, seed int64) (float64, error) {
	sess := sc.Sessions[0]
	e := swiftengine.New(swiftengine.Config{LocalAS: sc.Vantage, PrimaryNeighbor: sess.Neighbor})
	var prefixes []netaddr.Prefix
	learn := func(rib map[uint32][]uint32, fn func(netaddr.Prefix, []uint32)) {
		origins := make([]uint32, 0, len(rib))
		for o := range rib {
			origins = append(origins, o)
		}
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		for _, o := range origins {
			for i := 0; i < sc.Net.Origins[o]; i++ {
				fn(netaddr.PrefixFor(o, i), rib[o])
			}
		}
	}
	learn(sess.RIB, func(p netaddr.Prefix, path []uint32) {
		e.LearnPrimary(p, path)
		prefixes = append(prefixes, p)
	})
	var alts []uint32
	for nb := range sc.NeighborRIBs {
		if nb != sess.Neighbor {
			alts = append(alts, nb)
		}
	}
	slices.Sort(alts)
	for _, nb := range alts {
		learn(sc.NeighborRIBs[nb], func(p netaddr.Prefix, path []uint32) { e.LearnAlternate(nb, p, path) })
	}
	if err := e.Provision(); err != nil {
		return 0, err
	}
	if len(prefixes) == 0 {
		return 0, fmt.Errorf("scenario %s: empty table", sc.Spec.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]uint32, forwardProbes)
	for i := range addrs {
		addrs[i] = prefixes[rng.Intn(len(prefixes))].Addr()
	}
	nh := make([]uint32, forwardBurst)
	ok := make([]bool, forwardBurst)
	fib := e.FIB()
	start := time.Now()
	for rep := 0; rep < 16; rep++ {
		for i := 0; i < len(addrs); i += forwardBurst {
			fib.ForwardBatch(addrs[i:i+forwardBurst], nh, ok)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(16*len(addrs)), nil
}
