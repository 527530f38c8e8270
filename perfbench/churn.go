package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/bmp"
	"swift/internal/controller"
	"swift/internal/event"
	swiftengine "swift/internal/swift"
	"swift/internal/trace"
)

// bmp-churn sizing. Full tables follow ROADMAP's ~900k prefixes,
// scaled to an 8 GB, 2-vCPU host and the time budget. All peers share one
// connection so one station reader sets the pace (see README.md). The
// alternates preload is a settlement-free peer's partial table: every
// engine carries it, so a full-size one would multiply the fleet's
// memory by the peer count. The closed loop writes storms of
// churnStormEvents, each as fast as TCP accepts it, and starts the next
// once the fleet has applied the last: timed one by one, the median
// storm shrugs off the spells in which the shared host takes CPU away,
// which a rate over the whole run takes in.
const (
	churnASes         = 400
	churnMaxPrefixes  = 45_000 // largest origin; full tables come out near 545k prefixes
	churnConns        = 1
	churnFullPeers    = 2
	churnSmallPeers   = 16
	churnPassEvents   = 1_200_000
	churnFullShare    = 0.5  // of the events, on the full-table peers
	churnWdShare      = 0.02 // withdraw/re-announce pairs among the picks
	churnStep         = 1000 // µs between one peer's frames on the router clock
	churnSetups       = 5
	churnScrapeEvery  = time.Second
	churnStormEvents  = 25_000 // prefix-events per closed-loop storm
	churnPoll         = 50 * time.Microsecond
	churnStormTimeout = 30 * time.Second
)

type churnInputs struct {
	localAS  uint32
	alt      alternates
	conns    []*connStream
	tables   [][][]route
	snapPath string
	snapSize int64
	snapTime time.Duration
	info     map[string]any
}

func genChurn(cfg runConfig, nconns int) (*churnInputs, error) {
	ds := trace.Generate(trace.Config{
		NumASes:           churnASes,
		AvgDegree:         8.4,
		Sessions:          1,
		Days:              30,
		MaxPrefixes:       churnMaxPrefixes,
		PopularASes:       15,
		ASFailureFraction: 0.15,
		Timing:            bgpsim.DefaultTiming(datasetSeed),
		Seed:              datasetSeed,
	})
	v, provs, others := pickVantage(ds.Net.Graph)
	var small [][]route
	var smallAS []uint32
	var alt alternates
	for _, o := range others {
		t := pathOf(ds.SessionRIB(trace.Session{Vantage: v, Neighbor: o}), ds.Net.Origins)
		switch {
		case len(t) == 0:
		case alt.routes == nil:
			alt = alternates{as: o, routes: t}
		case len(small) < churnSmallPeers:
			small, smallAS = append(small, t), append(smallAS, o)
		}
	}
	if len(provs) < churnFullPeers || alt.routes == nil {
		return nil, fmt.Errorf("vantage AS%d has %d providers and %d other neighbors", v, len(provs), len(others))
	}
	in := &churnInputs{localAS: v, alt: alt, info: map[string]any{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	idOf, err := spread(provs[:churnFullPeers], smallAS)
	if err != nil {
		return nil, err
	}
	sizes := map[string]int{}
	for c := 0; c < nconns; c++ {
		cs := &connStream{}
		var tables [][]route
		full := 0
		for i := c; i < churnFullPeers; i += nconns {
			cs.peers = append(cs.peers, peerSpec{key: event.PeerKey{AS: provs[i], BGPID: idOf[provs[i]]}, addr: idOf[provs[i]]})
			tables = append(tables, pathOf(ds.SessionRIB(trace.Session{Vantage: v, Neighbor: provs[i]}), ds.Net.Origins))
			full++
		}
		for i := c; i < len(small); i += nconns {
			cs.peers = append(cs.peers, peerSpec{key: event.PeerKey{AS: smallAS[i], BGPID: idOf[smallAS[i]]}, addr: idOf[smallAS[i]]})
			tables = append(tables, small[i])
		}
		for pi, p := range cs.peers {
			sizes[p.key.String()] = len(tables[pi])
		}
		if err := cs.encodeSetup(fmt.Sprintf("perfbench-churn-%d", c), v, nil); err != nil {
			return nil, err
		}
		var frames []frame
		start := int64(time.Second / time.Microsecond)
		for pi := range cs.peers {
			want := int(churnPassEvents * churnFullShare / float64(full))
			if pi >= full {
				want = int(churnPassEvents * (1 - churnFullShare) / float64(len(cs.peers)-full))
			}
			frames = append(frames, toggleFrames(int32(pi), tables[pi], want, 2, churnWdShare, start, churnStep, rng)...)
		}
		sort.SliceStable(frames, func(i, j int) bool { return frames[i].ts < frames[j].ts })
		for _, f := range frames {
			if err := cs.addFrame(f); err != nil {
				return nil, err
			}
		}
		cs.finish(time.Second, 0)
		in.conns = append(in.conns, cs)
		in.tables = append(in.tables, tables)
	}
	ds = nil

	// The warm-restart image: a fleet built as swiftd builds it, each
	// peer's table learned and provisioned, checkpointed to disk.
	fcfg, _, _ := fleetConfig(v, alt, controller.FleetObserver{})
	f := controller.NewFleet(fcfg)
	err = parallel(len(in.conns), func(ci int) error {
		for pi, p := range in.conns[ci].peers {
			for _, r := range in.tables[ci][pi] {
				f.Learn(p.key, r.prefix, r.path)
			}
			if err := f.Provision(p.key); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	in.snapPath = filepath.Join(cfg.out, fmt.Sprintf("churn-%d.snap", cfg.seed))
	file, err := os.Create(in.snapPath)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	err = f.Snapshot(file)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	in.snapTime = time.Since(start)
	f.Close()
	// The tables live on in the snapshot; kept, their million path
	// slices would be scanned by every collection the daemon runs.
	in.tables = nil
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	st, err := os.Stat(in.snapPath)
	if err != nil {
		return nil, err
	}
	in.snapSize = st.Size()
	in.info["vantage_as"] = v
	in.info["alternate_as"] = alt.as
	in.info["alternate_routes"] = len(alt.routes)
	in.info["table_sizes"] = sizes
	in.info["pass_events"] = churnPassEvents
	in.info["snapshot_bytes"] = in.snapSize
	return in, nil
}

func runChurn(cfg runConfig) (*result, error) {
	genStart := time.Now()
	in, err := genChurn(cfg, churnConns)
	if err != nil {
		return nil, err
	}
	genTook := time.Since(genStart).Seconds()
	defer os.Remove(in.snapPath)
	res := newResult()
	for k, v := range in.info {
		res.info[k] = v
	}
	res.info["connections"] = churnConns
	res.info["generate_s"] = genTook
	base, err := measureChurn(cfg, in, nil)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		base.report(res)
		return res, nil
	}
	tr := newTracer()
	m, err := measureChurn(cfg, in, tr)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, base.res.problems...)
	res.problems = append(res.problems, m.res.problems...)
	res.attempted = base.res.attempted + m.res.attempted
	res.failed = base.res.failed + m.res.failed
	layers := tr.churnLayers(in, m)
	layers["trace.overhead_pct"] = metric{100 * ratio(m.rate-base.rate, base.rate), "%"}
	layers["reaction.p99_ms"] = metric{quantile(slices.Clone(m.absorb), 0.99), "ms"}
	res.metrics = fillLayers(layers)
	if err := tr.writeSpans(cfg, "bmp-churn", m.t0); err != nil {
		return nil, err
	}
	return res, nil
}

// churnRun is one measured bmp-churn pass.
type churnRun struct {
	res      *result
	gens     []*generator
	t0       time.Time
	setup    []float64
	restore  []float64
	heap     float64
	evalDur  time.Duration
	events   int64
	rate     float64
	absorb   []float64 // ms, each measured storm's first write → last event applied
	drain    []float64 // ms, each measured storm's last write return → last event applied
	rates    []float64 // prefix-events/s, each measured storm
	rateAll  float64   // all measured storms' events over their span
	scrapes  int
	replay   time.Duration
	replayN  int64
	stBefore bmp.StationMetrics
	stAfter  bmp.StationMetrics
	scrape   []byte
}

func measureChurn(cfg runConfig, in *churnInputs, tr *tracer) (*churnRun, error) {
	m := &churnRun{res: newResult()}
	hooks := &hookLog{}
	var d *daemon
	heapBefore := heapMB()
	for s := 0; s < churnSetups; s++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			d = nil
		}
		runtime.GC()
		fcfg, reg, ring := fleetConfig(in.localAS, in.alt, hooks.observer())
		start := time.Now()
		file, err := os.Open(in.snapPath)
		if err != nil {
			return nil, err
		}
		fleet, err := controller.RestoreFleet(file, fcfg)
		file.Close()
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		restored := time.Since(start)
		if d, err = startDaemon(fleet, reg, ring, tr.sink(fleet)); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
		m.restore = append(m.restore, restored.Seconds())
	}
	m.heap = heapMB() - heapBefore
	for _, c := range in.conns {
		g, err := dial(d.addr, c)
		if err != nil {
			return nil, err
		}
		if err := g.sendSetup(); err != nil {
			return nil, err
		}
		m.gens = append(m.gens, g)
	}
	hooks.reset()
	tr.reset()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		tick := time.NewTicker(churnScrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				d.scrape()
				m.scrapes++
			}
		}
	}()
	if tr != nil {
		tr.startSampler(d)
	}
	opsStart := d.fleet.Metrics().Ops
	m.stBefore = d.station.Metrics()
	// A storm counts as applied once the station has read every byte of
	// it and the fleet's applied-event counter has reached its last
	// event; Fleet.Sync drains what the station already handed off.
	g := m.gens[0]
	setupBytes := uint64(len(g.s.setup))
	absorbed := func(bytes, events int64) error {
		deadline := time.Now().Add(churnStormTimeout)
		for d.station.Metrics().Bytes < setupBytes+uint64(bytes) {
			if time.Now().After(deadline) {
				return fmt.Errorf("station read %d of %d bytes in %v", d.station.Metrics().Bytes, setupBytes+uint64(bytes), churnStormTimeout)
			}
			time.Sleep(churnPoll)
		}
		for {
			d.fleet.Sync()
			got := d.fleet.Metrics().Ops - opsStart
			if got >= uint64(events) {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet applied %d of %d prefix-events in %v", got, events, churnStormTimeout)
			}
			time.Sleep(churnPoll)
		}
	}
	gcBefore := numGC()
	m.t0 = time.Now()
	g.runStorms(m.t0, warmup+cfg.seconds, churnStormEvents, absorbed)
	m.res.info["gc_cycles"] = numGC() - gcBefore
	if g.log.err != nil {
		return nil, fmt.Errorf("generator: %w", g.log.err)
	}
	if err := g.terminate(); err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	m.events = g.log.events
	if err := d.waitIdle(120 * time.Second); err != nil {
		return nil, err
	}
	// The storms that started inside the warm-up are not measured.
	var events int64
	var first, last time.Duration = -1, 0
	for _, st := range g.log.storms {
		if st.start < warmup {
			continue
		}
		took := st.applied - st.start
		m.absorb = append(m.absorb, ms(took))
		m.drain = append(m.drain, ms(st.applied-st.lastWrite))
		m.rates = append(m.rates, float64(st.events)/took.Seconds())
		events += st.events
		if first < 0 {
			first = st.start
		}
		last = st.applied
	}
	if len(m.rates) == 0 {
		return nil, fmt.Errorf("no storm started after the %v warm-up", warmup)
	}
	m.evalDur = last - first
	m.rateAll = float64(events) / m.evalDur.Seconds()
	m.rate = median(slices.Clone(m.rates))
	close(stop)
	bg.Wait()
	tr.stopSampler()
	m.stAfter = d.station.Metrics()
	if tr != nil {
		m.scrape = d.scrape()
	}
	applied := int64(d.fleet.Metrics().Ops - opsStart)
	m.res.attempted = m.events
	if applied != m.events {
		m.res.failed = m.events - applied
		m.res.fail("sent %d prefix-events, fleet applied %d", m.events, applied)
	}
	if n := m.stAfter.DecodeErrors - m.stBefore.DecodeErrors; n > 0 {
		m.res.failed += int64(n)
		m.res.fail("station reported %d decode errors", n)
	}
	if n := len(hooks.burstStart); n > 0 {
		m.res.fail("%d bursts opened on churn noise", n)
	}
	got := map[event.PeerKey]uint64{}
	for _, p := range d.fleet.Peers() {
		p.Do(func(e *swiftengine.Engine) { got[p.Key()] = e.RIB().Signature() })
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	d = nil
	runtime.GC()

	// Output check: the same frames applied with Engine.Apply, on one
	// goroutine, to a second restore of the snapshot, must leave every
	// peer's RIB with the live fleet's signature.
	checkStart := time.Now()
	want, took, n, err := replayRestored(in, m.gens)
	m.res.info["check_s"] = time.Since(checkStart).Seconds()
	if err != nil {
		return nil, err
	}
	m.replay, m.replayN = took, n
	for key, sig := range want {
		m.res.attempted++
		if got[key] != sig {
			m.res.failed++
			m.res.fail("peer %s: live RIB signature %x, direct replay %x", key, got[key], sig)
		}
	}
	return m, nil
}

// replayRestored restores the snapshot again and applies every sent
// frame straight to the engines with Engine.Apply, one goroutine per
// peer (at most GOMAXPROCS at once), returning each peer's final RIB
// signature and the goroutines' summed time inside Apply.
func replayRestored(in *churnInputs, gens []*generator) (map[event.PeerKey]uint64, time.Duration, int64, error) {
	f, err := restoreFile(in)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	peers := map[event.PeerKey]*controller.FleetPeer{}
	for _, p := range f.Peers() {
		peers[p.Key()] = p
	}
	type peerRef struct{ ci, pi int }
	var refs []peerRef
	for ci, c := range in.conns {
		for pi := range c.peers {
			refs = append(refs, peerRef{ci, pi})
		}
	}
	took := make([]time.Duration, len(refs))
	events := make([]int64, len(refs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	parallel(len(refs), func(i int) error {
		sem <- struct{}{}
		defer func() { <-sem }()
		r := refs[i]
		forEachSent(in.conns[r.ci], gens[r.ci], int32(r.pi), func(key event.PeerKey, b event.Batch) {
			peers[key].Do(func(e *swiftengine.Engine) {
				start := time.Now()
				e.Apply(b)
				took[i] += time.Since(start)
			})
			events[i] += int64(len(b))
		})
		return nil
	})
	sigs := map[event.PeerKey]uint64{}
	for key, p := range peers {
		p.Do(func(e *swiftengine.Engine) { sigs[key] = e.RIB().Signature() })
	}
	var total time.Duration
	var n int64
	for ci := range took {
		total += took[ci]
		n += events[ci]
	}
	return sigs, total, n, nil
}

func restoreFile(in *churnInputs) (*controller.Fleet, error) {
	fcfg, _, _ := fleetConfig(in.localAS, in.alt, controller.FleetObserver{})
	file, err := os.Open(in.snapPath)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return controller.RestoreFleet(file, fcfg)
}

func (m *churnRun) report(res *result) {
	res.attempted += m.res.attempted
	res.failed += m.res.failed
	res.problems = append(res.problems, m.res.problems...)
	res.warnings = append(res.warnings, m.res.warnings...)
	var busy float64
	for _, g := range m.gens {
		busy = max(busy, g.log.busyShare())
	}
	if busy > maxBusyShare {
		res.warn("invalid run: the generator set the pace (busy share %.2f)", busy)
	}
	res.info["loadgen_busy_share"] = busy
	res.info["storms"] = len(m.absorb)
	res.info["storm_events"] = churnStormEvents
	res.info["storm_drain_p50_ms"] = median(slices.Clone(m.drain))
	res.info["gc_cycles"] = m.res.info["gc_cycles"]
	res.info["storms_events_per_s"] = m.rateAll
	res.info["check_s"] = m.res.info["check_s"]
	res.info["metrics_scrapes"] = m.scrapes
	res.info["setup_samples_s"] = m.setup
	res.info["restore_samples_s"] = m.restore
	res.info["passes"] = float64(m.gens[0].log.frames) / float64(len(m.gens[0].s.src))
	res.set("setup_s", median(slices.Clone(m.setup)), "s")
	res.set("reaction_p50_ms", median(slices.Clone(m.absorb)), "ms")
	res.info["reaction_p95_ms"] = quantile(slices.Clone(m.absorb), 0.95)
	res.info["reaction_p99_ms"] = quantile(slices.Clone(m.absorb), 0.99)
	res.set("ingest_events_per_s", m.rate, "events/s")
	res.set("eval_s", m.evalDur.Seconds(), "s")
	res.set("heap_mb", m.heap, "MB")
	// Churn opens no burst, so SWIFT diverts nothing and loses exactly
	// what BGP loses; the run fails above if a burst opens.
	res.set("swift_lost_ratio", 1, "ratio")
}
