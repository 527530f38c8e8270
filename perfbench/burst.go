package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/bmp"
	"swift/internal/controller"
	"swift/internal/event"
	"swift/internal/netaddr"
	"swift/internal/rib"
	swiftengine "swift/internal/swift"
	"swift/internal/topology"
	"swift/internal/trace"
)

// datasetSeed fixes the synthetic Internet (topology, tables, failure
// schedule, burst arrival draws) of both BMP workloads. The run seed
// drives the background and churn picks streamed beside and over it,
// so seeds compare like for like: with the Internet drawn per seed, the
// share of decisions that divert a whole table swung reaction p99
// between seeds by 4x.
const datasetSeed = 1

// bmp-burst sizing. burstRate is the open loop's fixed offered load;
// see README.md for how it was chosen against a 2-vCPU host's
// saturation.
const (
	burstRate        = 250_000 // prefix-events/s offered
	burstConns       = 1       // one station reader: see README.md
	burstASes        = 300
	burstMaxPrefixes = 10_000 // largest origin; full tables come out near 110k prefixes
	burstPeerCount   = 2
	burstMinSize     = 25_000 // withdrawals: triggers past inference's AcceptAlways point
	burstsPerPeer    = 4      // distinct failures
	burstDraws       = 1      // arrival draws of each failure per pass
	burstCandidates  = 24     // failure deltas computed before settling for what was found
	burstBgPeers     = 4      // background (small-table) peers
	burstBgShare     = 0.1
	burstSetups      = 5
	burstGap         = 30 * time.Second // router-clock quiet between a burst, its recovery and the next burst
)

// burstInputs is the generated bmp-burst input: one monitored router
// split over the connections, its tables and its looped live streams.
type burstInputs struct {
	localAS uint32
	alt     alternates
	conns   []*connStream
	tables  [][][]route // per connection, per peer
	// bursts records, per burst peer, each pass-0 burst's frame range
	// for the loss proxy.
	bursts map[event.PeerKey][]burstSpan
	peers  int
	info   map[string]any
}

// burstSpan is one failure burst in a peer's pass-0 frames: onset is
// its first frame's router timestamp (µs).
type burstSpan struct {
	peer          int32 // index into the connection's peers
	onset, lastTs int64
	first, last   int // frame indices within the connection, inclusive
}

func pathOf(rib map[uint32][]uint32, origins map[uint32]int) []route {
	ors := make([]uint32, 0, len(rib))
	for o := range rib {
		ors = append(ors, o)
	}
	slices.Sort(ors)
	var out []route
	for _, o := range ors {
		for i := 0; i < origins[o]; i++ {
			out = append(out, route{netaddr.PrefixFor(o, i), rib[o]})
		}
	}
	return out
}

// pickVantage returns the AS with the most providers (lowest AS on a
// tie), its providers and its other neighbors, ascending.
func pickVantage(g *topology.Graph) (v uint32, providers, others []uint32) {
	best := -1
	for _, as := range g.ASes() {
		n := 0
		for _, nb := range g.Neighbors(as) {
			if nb.Rel == topology.RelProvider {
				n++
			}
		}
		if n > best || (n == best && as < v) {
			v, best = as, n
		}
	}
	for _, nb := range g.Neighbors(v) {
		if nb.Rel == topology.RelProvider {
			providers = append(providers, nb.AS)
		} else {
			others = append(others, nb.AS)
		}
	}
	slices.Sort(providers)
	slices.Sort(others)
	return v, providers, others
}

func genBurst(seed int64, nconns int) (*burstInputs, error) {
	ds := trace.Generate(trace.Config{
		NumASes:           burstASes,
		AvgDegree:         8.4,
		Sessions:          1,
		Days:              30,
		Failures:          260,
		MaxPrefixes:       burstMaxPrefixes,
		PopularASes:       15,
		ASFailureFraction: 0.15,
		Timing:            bgpsim.DefaultTiming(datasetSeed),
		Seed:              datasetSeed,
	})
	v, provs, others := pickVantage(ds.Net.Graph)
	if len(provs) < burstPeerCount+1 {
		return nil, fmt.Errorf("vantage AS%d has %d providers, need %d", v, len(provs), burstPeerCount+1)
	}
	in := &burstInputs{
		localAS: v,
		bursts:  map[event.PeerKey][]burstSpan{},
		info:    map[string]any{},
	}
	// Walk the trace's own failure schedule once; each failure's routing
	// delta serves every provider session. A provider collects the
	// distinct failures it sees as a burst of burstMinSize or more
	// withdrawals; smaller bursts rarely pass inference.Default()'s
	// plausibility gate, so they would add events but no decisions. The
	// providers with the most such failures become the burst peers.
	type failure struct {
		idx int
		d   *bgpsim.FailureDelta
	}
	found := map[uint32][]failure{}
	seen := map[uint32]map[string]bool{}
	for _, p := range provs {
		seen[p] = map[string]bool{}
	}
	examined := 0
	for i, f := range ds.Failures {
		if examined == burstCandidates {
			break
		}
		id := fmt.Sprint(f.DeadAS, f.Link)
		var visible []uint32
		links := []topology.Link{f.Link}
		if f.DeadAS != 0 {
			links = links[:0]
			for _, nb := range ds.Net.Graph.Neighbors(f.DeadAS) {
				links = append(links, topology.MakeLink(f.DeadAS, nb.AS))
			}
		}
		for _, p := range provs {
			if len(found[p]) == burstsPerPeer || seen[p][id] {
				continue
			}
			// Cheap screen before the routing delta: a burst needs at
			// least burstMinSize of the session's routes across one
			// failed link.
			for _, l := range links {
				if ds.Base.LinkLoadAt(v, p, l) >= burstMinSize {
					visible = append(visible, p)
					break
				}
			}
		}
		if len(visible) == 0 {
			continue
		}
		examined++
		d := ds.Delta(i)
		for _, p := range visible {
			seen[p][id] = true
			if w, _ := ds.Base.BurstSizeAt(d, v, p); w >= burstMinSize {
				found[p] = append(found[p], failure{i, d})
			}
		}
		full := 0
		for _, p := range provs {
			if len(found[p]) == burstsPerPeer {
				full++
			}
		}
		if full >= burstPeerCount {
			break
		}
	}
	ranked := slices.Clone(provs)
	sort.SliceStable(ranked, func(i, j int) bool { return len(found[ranked[i]]) > len(found[ranked[j]]) })
	if len(found[ranked[burstPeerCount-1]]) == 0 {
		return nil, fmt.Errorf("fewer than %d providers of AS%d see a burst of %d+ withdrawals", burstPeerCount, v, burstMinSize)
	}
	burstPeers := ranked[:burstPeerCount]
	altAS := ranked[burstPeerCount]
	in.alt = alternates{as: altAS, routes: pathOf(ds.SessionRIB(trace.Session{Vantage: v, Neighbor: altAS}), ds.Net.Origins)}
	rng := rand.New(rand.NewSource(seed))

	var bg []uint32
	for _, o := range others {
		if len(bg) < burstBgPeers && len(ds.SessionRIB(trace.Session{Vantage: v, Neighbor: o})) > 0 {
			bg = append(bg, o)
		}
	}
	idOf, err := spread(burstPeers, bg)
	if err != nil {
		return nil, err
	}
	tableSizes := map[string]int{}
	totalBursts, totalWd := 0, 0
	var span int64
	var liveEvents int
	var passEvents []int64
	for c := 0; c < nconns; c++ {
		cs := &connStream{}
		var tables [][]route
		add := func(as uint32) {
			cs.peers = append(cs.peers, peerSpec{key: event.PeerKey{AS: as, BGPID: idOf[as]}, addr: idOf[as]})
			t := pathOf(ds.SessionRIB(trace.Session{Vantage: v, Neighbor: as}), ds.Net.Origins)
			tables = append(tables, t)
			tableSizes[cs.peers[len(cs.peers)-1].key.String()] = len(t)
		}
		if c == 0 {
			for _, p := range burstPeers {
				add(p)
			}
		}
		for i := c; i < len(bg); i += nconns {
			add(bg[i])
		}
		if err := cs.encodeSetup(fmt.Sprintf("perfbench-burst-%d", c), v, tables); err != nil {
			return nil, err
		}

		var frames []frame
		var spans []burstSpan
		if c == 0 {
			// The burst peers share the first connection, each on its
			// own router timeline, their bursts interleaved by
			// timestamp. Each failure recurs burstDraws times per
			// pass, in the trace's schedule order, each with its own
			// arrival draw (message spacing, propagation, tail) seeded
			// from the dataset as BurstsAt seeds them, so every run
			// replays the same bursts: a seed-shuffled order changed
			// which fallbacks recompile a whole plan, and with it
			// reaction p99, from seed to seed.
			orig := make([]map[netaddr.Prefix][]uint32, len(burstPeers))
			for pi := range burstPeers {
				orig[pi] = map[netaddr.Prefix][]uint32{}
				for _, r := range tables[pi] {
					orig[pi][r.prefix] = r.path
				}
			}
			for pi, p := range burstPeers {
				var own []burstItem
				for r := 0; r < burstDraws; r++ {
					for _, f := range found[p] {
						tm := ds.Cfg.Timing
						tm.Seed = ds.Cfg.Seed ^ int64(f.idx)<<20 ^ int64(v)<<8 ^ int64(p) ^ int64(r)<<40
						b := ds.Base.BurstAt(f.d, v, p, tm)
						own = append(own, burstItem{peer: int32(pi), burst: b})
						totalWd += b.Size
					}
				}
				f, sp := burstFrames(own, orig)
				frames = append(frames, f...)
				spans = append(spans, sp...)
				totalBursts += len(own)
			}
			for _, f := range frames {
				liveEvents += f.events()
				span = max(span, f.ts)
			}
		}

		// Background churn on the small-table peers, spread over the
		// bursts' router-clock span, merged in timestamp order.
		first := 0
		if c == 0 {
			first = len(burstPeers)
		}
		for pi := first; pi < len(cs.peers); pi++ {
			want := int(float64(liveEvents) * burstBgShare / float64(len(bg)))
			start := int64(time.Second / time.Microsecond)
			step := max((span-start)/int64(want+1), 1)
			frames = append(frames, toggleFrames(int32(pi), tables[pi], want, 1, 0, start, step, rng)...)
		}
		sort.SliceStable(frames, func(i, j int) bool { return frames[i].ts < frames[j].ts })
		// The stable sort keeps each peer's frames in order; find the
		// burst spans by their (per-peer unique) timestamps.
		pos := map[[2]int64]int{}
		for i, f := range frames {
			pos[[2]int64{int64(f.peer), f.ts}] = i
			if err := cs.addFrame(f); err != nil {
				return nil, err
			}
		}
		for _, sp := range spans {
			sp.first = pos[[2]int64{int64(sp.peer), sp.onset}]
			sp.last = pos[[2]int64{int64(sp.peer), sp.lastTs}]
			key := cs.peers[sp.peer].key
			in.bursts[key] = append(in.bursts[key], sp)
		}
		passEvents = append(passEvents, cs.events)
		in.conns = append(in.conns, cs)
		in.tables = append(in.tables, tables)
		in.peers += len(cs.peers)
	}
	// Every connection's pass takes the same wall time: the offered
	// rate splits by each connection's share of the events.
	var total int64
	for _, n := range passEvents {
		total += n
	}
	for c, cs := range in.conns {
		cs.finish(burstGap, burstRate*float64(passEvents[c])/float64(total))
	}
	in.info["vantage_as"] = v
	in.info["alternate_as"] = altAS
	in.info["alternate_routes"] = len(in.alt.routes)
	in.info["table_sizes"] = tableSizes
	in.info["bursts_per_pass"] = totalBursts
	in.info["burst_withdrawals_per_pass"] = totalWd
	in.info["offered_rate_events_per_s"] = burstRate
	return in, nil
}

// burstItem is one burst of one burst peer (an index into the
// connection's peers) in the pass.
type burstItem struct {
	peer  int32
	burst *bgpsim.Burst
}

// burstFrames turns the bursts into pass-0 live frames on one router
// timeline: each burst's events at their own offsets (consecutive
// withdrawals packed as a router packs them), then, after a quiet gap,
// the recovery that re-announces every touched prefix on its original
// path, so every pass starts from the provisioned tables. Timestamps
// strictly increase, one microsecond at least between frames.
func burstFrames(items []burstItem, orig []map[netaddr.Prefix][]uint32) ([]frame, []burstSpan) {
	var out []frame
	var spans []burstSpan
	last := int64(0)
	next := func(ts int64) int64 {
		if ts <= last {
			ts = last + 1
		}
		last = ts
		return ts
	}
	start := int64(time.Second / time.Microsecond)
	for _, it := range items {
		span := burstSpan{peer: it.peer, onset: -1}
		emit := func(f frame) {
			f.peer = it.peer
			if span.onset < 0 {
				span.onset = f.ts
			}
			span.lastTs = f.ts
			out = append(out, f)
		}
		var wd []netaddr.Prefix
		var wdAt int64
		flush := func() {
			for len(wd) > 0 {
				n := min(len(wd), maxNLRI)
				emit(frame{ts: next(wdAt), withdrawn: slices.Clone(wd[:n])})
				wd = wd[n:]
			}
		}
		touched := map[netaddr.Prefix]bool{}
		for _, ev := range it.burst.Events {
			touched[ev.Prefix] = true
			at := start + ev.At.Microseconds()
			if ev.Kind == bgpsim.KindWithdraw {
				if len(wd) == 0 {
					wdAt = at
				}
				wd = append(wd, ev.Prefix)
				if len(wd) == maxNLRI {
					flush()
				}
				continue
			}
			flush()
			emit(frame{ts: next(at), nlri: []netaddr.Prefix{ev.Prefix}, path: ev.Path})
		}
		flush()
		spans = append(spans, span)

		// Recovery: the failed resource returns and BGP re-announces
		// the original routes, packed per path.
		var rs []route
		for p := range touched {
			if path, ok := orig[it.peer][p]; ok {
				rs = append(rs, route{p, path})
			}
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].prefix < rs[j].prefix })
		at := last + burstGap.Microseconds()
		for _, u := range packAnnouncements(rs) {
			out = append(out, frame{peer: it.peer, ts: next(at), nlri: u.NLRI, path: u.Attrs.ASPath})
			at += 100
		}
		start = last + burstGap.Microseconds()
	}
	return out, spans
}

// toggleFrames makes want prefix-events of path churn on one peer's
// table. Each pick moves one prefix (or, when perMsg is 2, half the
// time two adjacent prefixes of one origin) to an AS-path-prepended
// variant — or, with probability wdShare, withdraws it — and a second
// phase re-announces every pick on its original path, so a pass leaves
// the table as it found it. Frames are step µs apart from start.
func toggleFrames(peer int32, table []route, want, perMsg int, wdShare float64, start, step int64, rng *rand.Rand) []frame {
	if len(table) == 0 || want < 2 {
		return nil
	}
	type pick struct {
		i, n int
		wd   bool
	}
	var picks []pick
	for events := 0; 2*events < want; {
		p := pick{i: rng.Intn(len(table)), n: 1}
		if perMsg > 1 && rng.Intn(2) == 0 && p.i+1 < len(table) && slices.Equal(table[p.i+1].path, table[p.i].path) {
			p.n = 2
		}
		p.wd = rng.Float64() < wdShare
		picks = append(picks, p)
		events += p.n
	}
	out := make([]frame, 0, 2*len(picks))
	ts := start
	for phase := 0; phase < 2; phase++ {
		for _, p := range picks {
			f := frame{peer: peer, ts: ts}
			var pfx []netaddr.Prefix
			for k := 0; k < p.n; k++ {
				pfx = append(pfx, table[p.i+k].prefix)
			}
			switch {
			case phase == 1:
				f.nlri, f.path = pfx, table[p.i].path
			case p.wd:
				f.withdrawn = pfx
			default:
				f.nlri, f.path = pfx, prepend(table[p.i].path)
			}
			out = append(out, f)
			ts += step
		}
	}
	return out
}

// prepend returns path with its origin repeated once — an ordinary
// traffic-engineering path change.
func prepend(path []uint32) []uint32 {
	out := make([]uint32, len(path)+1)
	copy(out, path)
	out[len(path)] = path[len(path)-1]
	return out
}

func runBurst(cfg runConfig) (*result, error) {
	nconns := burstConns
	genStart := time.Now()
	in, err := genBurst(cfg.seed, nconns)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.info["generate_s"] = time.Since(genStart).Seconds()
	for k, v := range in.info {
		res.info[k] = v
	}
	res.info["connections"] = nconns
	res.info["peers"] = in.peers
	if !cfg.trace {
		m, err := measureBurst(cfg, in, nil)
		if err != nil {
			return nil, err
		}
		m.report(res)
		return res, nil
	}
	base, err := measureBurst(cfg, in, nil)
	if err != nil {
		return nil, err
	}
	baseP50 := base.reactionP50
	res.problems = append(res.problems, base.res.problems...)
	res.attempted, res.failed = base.res.attempted, base.res.failed
	base = nil
	tr := newTracer()
	m, err := measureBurst(cfg, in, tr)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, m.res.problems...)
	res.attempted += m.res.attempted
	res.failed += m.res.failed
	layers := tr.burstLayers(cfg, in, m)
	layers["trace.overhead_pct"] = metric{100 * ratio(m.reactionP50-baseP50, baseP50), "%"}
	layers["reaction.p99_ms"] = metric{quantile(slices.Clone(m.reactions), 0.99), "ms"}
	res.metrics = fillLayers(layers)
	if err := tr.writeSpans(cfg, "bmp-burst", m.t0); err != nil {
		return nil, err
	}
	return res, nil
}

// spread assigns BGP identifiers so the heavy peers (one per
// connection) take a shard each and the small peers round-robin over
// the shards.
func spread(heavy, small []uint32) (map[uint32]uint32, error) {
	var ases []uint32
	var want []int
	for c, as := range heavy {
		ases, want = append(ases, as), append(want, c)
	}
	for j, as := range small {
		ases, want = append(ases, as), append(want, j)
	}
	ids, err := placeIDs(ases, want, 0x0a000001)
	if err != nil {
		return nil, err
	}
	out := map[uint32]uint32{}
	for i, as := range ases {
		out[as] = ids[i]
	}
	return out, nil
}

// burstRun is one measured bmp-burst pass over the daemon stack.
type burstRun struct {
	in      *burstInputs
	res     *result
	gens    []*generator
	hooks   *hookLog
	t0      time.Time
	setup   []float64
	heap    float64
	warmup  time.Duration
	evalDur time.Duration
	events  int64

	reactions   []float64 // ms
	reactionP50 float64
	lostRatio   float64
	replay      *replayStats
	deferred    int // engines' plausibility-gate deferrals
	pool        rib.PoolStats
	fleet       *controller.Fleet
	daemon      *daemon
	stBefore    bmp.StationMetrics
	stAfter     bmp.StationMetrics
	provisions  []provisionRec // initial provisions of the measured set-up
	lastScrape  []byte
}

func measureBurst(cfg runConfig, in *burstInputs, tr *tracer) (*burstRun, error) {
	m := &burstRun{in: in, res: newResult()}
	var d *daemon
	heapBefore := heapMB()
	for s := 0; s < burstSetups; s++ {
		if d != nil {
			for _, g := range m.gens {
				g.terminate()
			}
			if err := d.stop(); err != nil {
				return nil, err
			}
			d = nil
		}
		runtime.GC()
		hooks := &hookLog{provisionC: make(chan struct{}, in.peers)}
		fcfg, reg, ring := fleetConfig(in.localAS, in.alt, hooks.observer())
		fleet := controller.NewFleet(fcfg)
		var err error
		if d, err = startDaemon(fleet, reg, ring, tr.sink(fleet)); err != nil {
			return nil, err
		}
		m.gens = m.gens[:0]
		for _, c := range in.conns {
			g, err := dial(d.addr, c)
			if err != nil {
				return nil, err
			}
			m.gens = append(m.gens, g)
		}
		start := time.Now()
		errs := make(chan error, len(m.gens))
		for _, g := range m.gens {
			go func() { errs <- g.sendSetup() }()
		}
		for range m.gens {
			if err := <-errs; err != nil {
				return nil, fmt.Errorf("table dump: %w", err)
			}
		}
		timeout := time.After(120 * time.Second)
		for i := 0; i < in.peers; i++ {
			select {
			case <-hooks.provisionC:
			case <-timeout:
				return nil, fmt.Errorf("set-up: %d of %d peers provisioned after 120s", i, in.peers)
			}
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
		m.hooks, m.daemon, m.fleet = hooks, d, fleet
	}
	m.heap = heapMB() - heapBefore
	m.provisions = slices.Clone(m.hooks.provisions)
	m.stBefore = m.daemon.station.Metrics()
	m.hooks.reset()
	tr.reset()
	if tr != nil {
		tr.startSampler(m.daemon)
	}
	opsBefore := m.fleet.Metrics().Ops
	// The first pass is the warm-up: it carries each burst's first
	// occurrence, whose one-time costs (the first fallback provisions,
	// cold lookup structures) a long-running daemon pays once.
	m.warmup = max(warmup, in.conns[0].passDur)
	m.t0 = time.Now()
	runAll(m.gens, m.t0, m.warmup+cfg.seconds)
	for _, g := range m.gens {
		if g.log.err != nil {
			return nil, fmt.Errorf("generator: %w", g.log.err)
		}
		if err := g.terminate(); err != nil {
			return nil, fmt.Errorf("generator: %w", err)
		}
		m.events += g.log.events
	}
	if err := m.daemon.waitIdle(120 * time.Second); err != nil {
		return nil, err
	}
	m.evalDur = time.Since(m.t0)
	tr.stopSampler()
	m.stAfter = m.daemon.station.Metrics()
	if tr != nil {
		m.lastScrape = m.daemon.scrape()
	}
	applied := int64(m.fleet.Metrics().Ops - opsBefore)
	m.res.attempted = m.events
	if applied != m.events {
		m.res.failed = m.events - applied
		m.res.fail("sent %d prefix-events, fleet applied %d", m.events, applied)
	}
	if n := m.stAfter.DecodeErrors - m.stBefore.DecodeErrors; n > 0 {
		m.res.failed += int64(n)
		m.res.fail("station reported %d decode errors", n)
	}

	// Reaction: due time of the frame carrying the trigger-completing
	// withdrawal, to OnDecision (rules already in the FIB).
	idx := buildIndex(in.conns)
	for _, rec := range m.hooks.decisions {
		ref, ok := lookup(in.conns, idx, rec.peer, rec.d.At)
		if !ok || in.conns[ref.conn].src[ref.frame].nWd == 0 {
			m.res.failed++
			m.res.fail("decision %s at %v names no sent withdrawal frame", rec.peer, rec.d.At)
			continue
		}
		c := in.conns[ref.conn]
		due := time.Duration(ref.pass)*c.passDur + c.due[ref.frame]
		if due >= m.warmup {
			m.reactions = append(m.reactions, ms(rec.wall.Sub(m.t0.Add(due))))
		}
	}
	m.reactionP50 = median(slices.Clone(m.reactions))
	// The live fleet (and its engines' decision logs) goes before the
	// replay builds a second set of engines.
	m.pool = m.fleet.Pool().Stats()
	if err := m.daemon.stop(); err != nil {
		return nil, err
	}
	m.fleet, m.daemon = nil, nil
	runtime.GC()

	// Output check: the same frames applied directly to fresh engines
	// must make exactly the fleet's decisions.
	checkStart := time.Now()
	defer func() { m.res.info["check_s"] = time.Since(checkStart).Seconds() }()
	rs, err := replayDirect(in.localAS, in.alt, in.conns, in.tables, m.gens)
	if err != nil {
		return nil, err
	}
	m.replay = rs
	fleetDec := map[event.PeerKey][]swiftengine.Decision{}
	for _, rec := range m.hooks.decisions {
		fleetDec[rec.peer] = append(fleetDec[rec.peer], rec.d)
	}
	for key, want := range rs.decisions {
		got := fleetDec[key]
		m.res.attempted += int64(len(want))
		if len(got) != len(want) {
			m.res.fail("peer %s: fleet made %d decisions, direct Engine.Apply %d", key, len(got), len(want))
			m.res.failed += int64(max(len(want)-len(got), len(got)-len(want)))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i].At != want[i].At || !slices.Equal(got[i].Result.Links, want[i].Result.Links) {
				m.res.failed++
				m.res.fail("peer %s decision %d: fleet at %v links %v, direct at %v links %v",
					key, i, got[i].At, got[i].Result.Links, want[i].At, want[i].Result.Links)
				break
			}
		}
	}
	if len(m.reactions) < 500 {
		m.res.warn("only %d reaction samples; p99 has fewer than five beyond it", len(m.reactions))
	}
	m.lostRatio = lostProxy(in, rs)
	for _, e := range rs.engines {
		m.deferred += e.Deferred()
	}
	rs.engines, rs.decisions = nil, nil
	return m, nil
}

func (m *burstRun) report(res *result) {
	res.attempted += m.res.attempted
	res.failed += m.res.failed
	res.problems = append(res.problems, m.res.problems...)
	res.warnings = append(res.warnings, m.res.warnings...)
	var late []float64
	var busy float64
	for _, g := range m.gens {
		late = append(late, lateness(g)...)
		busy = max(busy, g.log.busyShare())
	}
	lateP99 := quantile(late, 0.99)
	var own []float64
	for _, g := range m.gens {
		own = append(own, ownLateness(g)...)
	}
	ownP99 := quantile(own, 0.99)
	if ownP99 > maxOwnLateMs || busy > maxBusyShare {
		res.warn("invalid run: the generator set the pace (own lateness p99 %.2f ms, busy share %.2f)", ownP99, busy)
	}
	res.info["loadgen_own_late_p99_ms"] = ownP99
	res.info["loadgen_late_p99_ms"] = lateP99
	res.info["loadgen_busy_share"] = busy
	res.info["reaction_samples"] = len(m.reactions)
	res.info["check_s"] = m.res.info["check_s"]
	var deferred int
	for _, e := range m.replay.engines {
		deferred += e.Deferred()
	}
	res.info["decisions"] = len(m.hooks.decisions)
	res.info["deferred"] = deferred
	res.info["passes"] = float64(m.gens[0].log.frames) / float64(len(m.in.conns[0].src))
	res.info["warmup_s"] = m.warmup.Seconds()
	res.info["setup_samples_s"] = m.setup
	res.set("setup_s", median(slices.Clone(m.setup)), "s")
	res.set("reaction_p50_ms", m.reactionP50, "ms")
	res.info["reaction_p95_ms"] = quantile(slices.Clone(m.reactions), 0.95)
	res.info["reaction_p99_ms"] = quantile(slices.Clone(m.reactions), 0.99)
	// The highest percentile with ten samples beyond it.
	tail := 1 - 10/float64(max(len(m.reactions), 10))
	res.info["reaction_tail_pct"] = 100 * tail
	res.info["reaction_tail_ms"] = quantile(slices.Clone(m.reactions), tail)
	res.set("ingest_events_per_s", float64(m.events)/m.evalDur.Seconds(), "events/s")
	res.set("eval_s", m.evalDur.Seconds(), "s")
	res.set("heap_mb", m.heap, "MB")
	res.set("swift_lost_ratio", m.lostRatio, "ratio")
}

// lateness returns, per frame written, how late its write started
// against its due time (ms).
func lateness(g *generator) []float64 {
	s, l := g.s, &g.log
	if s.due == nil {
		return nil
	}
	out := make([]float64, 0, l.frames)
	for ci := range l.chunkFirst {
		end := l.frames
		if ci+1 < len(l.chunkFirst) {
			end = l.chunkFirst[ci+1]
		}
		for gf := l.chunkFirst[ci]; gf < end; gf++ {
			pass, f := s.frameOf(gf)
			due := time.Duration(pass)*s.passDur + s.due[f]
			out = append(out, ms(l.chunkStart[ci]-due))
		}
	}
	return out
}

// The generator set the pace, not the system, when its own work or
// wake-up delays (not a write blocked by the collector) made frames
// late by more than maxOwnLateMs at p99, or when it was busy more than
// maxBusyShare of the run.
const (
	maxOwnLateMs = 2.0
	maxBusyShare = 0.5
)

// ownLateness is the part of each write's lateness the generator
// caused: how long after max(due time, previous write's return) it
// started. Lateness behind a blocked write is the collector's
// backpressure and stays charged to the system.
func ownLateness(g *generator) []float64 {
	s, l := g.s, &g.log
	if s.due == nil {
		return nil
	}
	out := make([]float64, 0, len(l.chunkFirst))
	for ci, gf := range l.chunkFirst {
		pass, f := s.frameOf(gf)
		ready := time.Duration(pass)*s.passDur + s.due[f]
		if ci > 0 {
			ready = max(ready, l.chunkEnd[ci-1])
		}
		out = append(out, ms(l.chunkStart[ci]-ready))
	}
	return out
}

// lostProxy is SWIFT's share of BGP's outage on the pass-0 bursts, in
// prefix-time on the router clock: BGP restores a withdrawn prefix when
// its withdrawal arrives; SWIFT when that withdrawal arrives or when a
// decision predicting the prefix is made, whichever is first. Both
// count from the burst's onset.
func lostProxy(in *burstInputs, rs *replayStats) float64 {
	var swiftLoss, bgpLoss float64
	for ci, c := range in.conns {
		for pi, peer := range c.peers {
			decs := rs.decisions[peer.key]
			epoch := c.epoch[pi]
			for _, sp := range in.bursts[peer.key] {
				if rs.pass0Frames[ci] <= sp.last {
					continue // the pass-0 burst was not sent whole
				}
				first := map[netaddr.Prefix]int64{}
				for _, d := range decs {
					ts := d.At.Microseconds() + epoch
					if ts < sp.onset || ts > sp.lastTs {
						continue
					}
					for _, p := range d.Predicted {
						if _, ok := first[p]; !ok {
							first[p] = ts
						}
					}
				}
				for f := sp.first; f <= sp.last; f++ {
					s := &c.src[f]
					if s.peer != int32(pi) {
						continue
					}
					for _, p := range c.withdrawn(f) {
						bgp := float64(s.ts - sp.onset)
						sw := bgp
						if t, ok := first[p]; ok && t < s.ts {
							sw = float64(t - sp.onset)
						}
						bgpLoss += bgp
						swiftLoss += sw
					}
				}
			}
		}
	}
	return ratio(swiftLoss, bgpLoss)
}

// burstLayers computes the traced bmp-burst run's per-layer metrics and
// records its spans: one id per trigger, covering the generator write,
// the station hand-off, the enqueue and the decision.
func (t *tracer) burstLayers(cfg runConfig, in *burstInputs, m *burstRun) map[string]metric {
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	t.stationLayers(out, m.stBefore, m.stAfter)
	if ns, err := codecNsPerMsg(in.conns); err == nil {
		set("bmp.codec_ns_per_msg", ns, "ns")
	}
	idx := buildIndex(in.conns)
	var handoff, queue, infer []float64
	var rules int
	for i, rec := range m.hooks.decisions {
		infer = append(infer, ms(rec.d.InferLatency))
		rules += rec.d.RulesInstalled
		ref, ok := lookup(in.conns, idx, rec.peer, rec.d.At)
		b, okb := t.batchFor(rec.peer, rec.d.At)
		if !ok || !okb {
			continue
		}
		c, g := in.conns[ref.conn], m.gens[ref.conn]
		ws, we := g.log.writeAt(ref.pass*int64(len(c.src)) + int64(ref.frame))
		wstart, wend := m.t0.Add(ws), m.t0.Add(we)
		due := m.t0.Add(time.Duration(ref.pass)*c.passDur + c.due[ref.frame])
		handoff = append(handoff, ms(b.enter.Sub(wstart)))
		queue = append(queue, ms(rec.wall.Sub(b.exit)-rec.d.InferLatency))
		id, peer := i+1, rec.peer.String()
		t.addSpan(span{ID: id, Name: "trigger (due → decision)", Peer: peer, Start: us(m.t0, due), End: us(m.t0, rec.wall)})
		t.addSpan(span{ID: id, Name: "loadgen.write", Peer: peer, Start: us(m.t0, wstart), End: us(m.t0, wend)})
		t.addSpan(span{ID: id, Name: "bmp.handoff (write → sink Apply)", Peer: peer, Start: us(m.t0, wstart), End: us(m.t0, b.enter)})
		t.addSpan(span{ID: id, Name: "controller.enqueue (FleetPeer.Apply)", Peer: peer, Start: us(m.t0, b.enter), End: us(m.t0, b.exit)})
		t.addSpan(span{ID: id, Name: "swift.apply (dequeue → OnDecision)", Peer: peer, Start: us(m.t0, b.exit), End: us(m.t0, rec.wall)})
		t.addSpan(span{ID: id, Name: "inference.infer (Decision.InferLatency, ends before rules)", Peer: peer, Start: us(m.t0, rec.wall.Add(-rec.d.InferLatency)), End: us(m.t0, rec.wall)})
	}
	for i, b := range m.hooks.burstStart {
		t.addSpan(span{ID: -(i + 1), Name: "burst.start", Peer: b.peer.String(), Start: us(m.t0, b.wall), End: us(m.t0, b.wall)})
	}
	var fallback []float64
	var fallbacks, unchanged int
	for i, b := range m.hooks.burstEnd {
		for _, p := range m.hooks.provisions {
			if p.peer == b.peer && p.info.Fallback && !p.wall.Before(b.wall) {
				fallback = append(fallback, ms(p.wall.Sub(b.wall)))
				t.addSpan(span{ID: -(len(m.hooks.burstStart) + i + 1), Name: "burst.end → fallback provision", Peer: b.peer.String(), Start: us(m.t0, b.wall), End: us(m.t0, p.wall)})
				break
			}
		}
	}
	for _, p := range m.hooks.provisions {
		if p.info.Fallback {
			fallbacks++
			if p.info.Unchanged {
				unchanged++
			}
		}
	}
	set("bmp.handoff_ms_p50", median(slices.Clone(handoff)), "ms")
	set("bmp.handoff_ms_p99", quantile(handoff, 0.99), "ms")
	set("controller.queue_ms_p50", median(slices.Clone(queue)), "ms")
	set("controller.queue_ms_p99", quantile(queue, 0.99), "ms")
	t.controllerLayers(out, m.lastScrape)
	set("swift.apply_ns_per_event", ratio(float64(m.replay.applyTime.Nanoseconds()), float64(m.replay.events)), "ns")
	set("swift.decisions", float64(len(m.hooks.decisions)), "count")
	set("swift.deferred", float64(m.deferred), "count")
	set("swift.fallback_provision_ms_p50", median(slices.Clone(fallback)), "ms")
	set("swift.fallback_provision_ms_p99", quantile(fallback, 0.99), "ms")
	set("swift.provision_skip_ratio", ratio(float64(unchanged), float64(fallbacks)), "ratio")
	set("inference.infer_ms_p50", median(slices.Clone(infer)), "ms")
	set("inference.infer_ms_p99", quantile(infer, 0.99), "ms")
	runs := sum(scrapeValues(m.lastScrape, "swift_peer_infer_latency_seconds_count{"))
	set("inference.accept_ratio", ratio(float64(len(m.hooks.decisions)), runs), "ratio")
	t.ribLayers(out, m.pool)
	var tagged float64
	var bits int
	for _, p := range m.provisions {
		tagged += float64(p.info.TaggedPrefixes)
		bits = max(bits, p.info.PathBitsUsed)
	}
	set("encoding.tagged_prefixes", tagged, "count")
	set("encoding.path_bits", float64(bits), "bits")
	set("dataplane.rules_installed", float64(rules), "count")
	var late []float64
	var busy float64
	for _, g := range m.gens {
		late = append(late, lateness(g)...)
		busy = max(busy, g.log.busyShare())
	}
	set("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	set("loadgen.busy_share", busy, "ratio")
	if rate, err := directFleetRate(in.localAS, in.alt, in.conns, in.tables, m.gens); err == nil {
		set("controller.direct_apply_events_per_s", rate, "events/s")
		set("controller.station_fleet_ratio", ratio(float64(m.events)/m.evalDur.Seconds(), rate), "ratio")
	}
	return out
}
