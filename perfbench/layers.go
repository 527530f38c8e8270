package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"swift/internal/bgp"
	"swift/internal/bmp"
	"swift/internal/controller"
	"swift/internal/event"
	"swift/internal/netaddr"
	"swift/internal/rib"
)

// perLayer is every per-layer metric a traced run prints, with its
// unit. A workload that does not exercise a layer reports 0 for it.
// README.md maps each to the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"bmp.msgs", "count"},
	{"bmp.bytes", "bytes"},
	{"bmp.decode_errors", "count"},
	{"bmp.batches", "count"},
	{"bmp.events_per_batch", "events"},
	{"bmp.handoff_ms_p50", "ms"},
	{"bmp.handoff_ms_p99", "ms"},
	{"bmp.codec_ns_per_msg", "ns"},
	{"controller.enqueue_wait_s", "s"},
	{"controller.ring_full", "count"},
	{"controller.ring_depth_p99", "count"},
	{"controller.queue_ms_p50", "ms"},
	{"controller.queue_ms_p99", "ms"},
	{"controller.direct_apply_events_per_s", "events/s"},
	{"controller.station_fleet_ratio", "ratio"},
	{"swift.apply_ns_per_event", "ns"},
	{"swift.decisions", "count"},
	{"swift.deferred", "count"},
	{"swift.fallback_provision_ms_p50", "ms"},
	{"swift.fallback_provision_ms_p99", "ms"},
	{"swift.provision_skip_ratio", "ratio"},
	{"inference.infer_ms_p50", "ms"},
	{"inference.infer_ms_p99", "ms"},
	{"inference.accept_ratio", "ratio"},
	{"rib.learn_ns_per_route", "ns"},
	{"rib.pool_paths", "count"},
	{"rib.pool_links", "count"},
	{"reroute.provision_ms_per_peer", "ms"},
	{"encoding.tagged_prefixes", "count"},
	{"encoding.path_bits", "bits"},
	{"dataplane.rules_installed", "count"},
	{"dataplane.forward_ns_per_packet", "ns"},
	{"snapshot.write_s", "s"},
	{"snapshot.restore_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"fusion.external_decisions", "count"},
	{"fusion.vetoed", "count"},
	{"bgpsim.build_s", "s"},
	{"scenario.eval_perpeer_s", "s"},
	{"scenario.eval_fused_s", "s"},
	{"telemetry.scrape_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.busy_share", "ratio"},
	{"reaction.p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// fillLayers returns every per-layer metric, taking measured values
// from got and 0 for layers the workload does not exercise.
func fillLayers(got map[string]metric) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m, ok := got[l.name]
		if !ok {
			m = metric{0, l.unit}
		}
		if m.Unit != l.unit {
			panic(fmt.Sprintf("perfbench: metric %s measured in %s, declared in %s", l.name, m.Unit, l.unit))
		}
		out[l.name] = m
	}
	return out
}

// tracer records what the traced run needs from the benchmark's own
// wrappers around the layers' public functions. A nil tracer records
// nothing and wraps nothing.
type tracer struct {
	mu      sync.Mutex
	batches []batchRec

	learnTime time.Duration
	learnN    int64
	provTime  []time.Duration

	scrapes []float64 // ms per /metrics render
	depths  []float64 // sampled per-shard ring depths
	spans   []span
	stop    chan struct{}
	done    sync.WaitGroup
}

// batchRec is one batch the station handed to the sink.
type batchRec struct {
	peer        event.PeerKey
	first, last time.Duration // stream offsets of its first and last event
	n           int
	enter, exit time.Time
}

func newTracer() *tracer { return &tracer{} }

// reset starts the measured phase's records.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.batches, t.scrapes, t.depths = nil, nil, nil
	t.mu.Unlock()
}

// sink returns the station's sink: the fleet itself untraced, else
// sink, provisioner and peer-sink wrappers that time each call.
func (t *tracer) sink(f *controller.Fleet) event.Sink {
	if t == nil {
		return nil
	}
	return &traceSink{t: t, f: f}
}

type traceSink struct {
	t *tracer
	f *controller.Fleet
}

func (s *traceSink) Apply(b event.Batch) error {
	return s.t.timed(b, func() error { return s.f.Apply(b) })
}

func (s *traceSink) Learn(peer event.PeerKey, p netaddr.Prefix, path []uint32) {
	start := time.Now()
	s.f.Learn(peer, p, path)
	d := time.Since(start)
	s.t.mu.Lock()
	s.t.learnTime += d
	s.t.learnN++
	s.t.mu.Unlock()
}

func (s *traceSink) Provisioned(peer event.PeerKey) bool { return s.f.Provisioned(peer) }

func (s *traceSink) Provision(peer event.PeerKey) error {
	start := time.Now()
	err := s.f.Provision(peer)
	d := time.Since(start)
	s.t.mu.Lock()
	s.t.provTime = append(s.t.provTime, d)
	s.t.mu.Unlock()
	return err
}

func (s *traceSink) PeerSink(peer event.PeerKey) event.Sink {
	return &tracePeerSink{t: s.t, dst: s.f.PeerSink(peer)}
}

type tracePeerSink struct {
	t   *tracer
	dst event.Sink
}

func (s *tracePeerSink) Apply(b event.Batch) error {
	return s.t.timed(b, func() error { return s.dst.Apply(b) })
}

func (t *tracer) timed(b event.Batch, apply func() error) error {
	enter := time.Now()
	err := apply()
	exit := time.Now()
	if len(b) > 0 {
		t.mu.Lock()
		t.batches = append(t.batches, batchRec{b[0].Peer, b[0].At, b[len(b)-1].At, len(b), enter, exit})
		t.mu.Unlock()
	}
	return err
}

// scrapeEvery is the traced run's registry sampling period.
const scrapeEvery = 20 * time.Millisecond

// startSampler scrapes /metrics periodically, timing each render and
// sampling the per-shard ring depth gauges.
func (t *tracer) startSampler(d *daemon) {
	t.stop = make(chan struct{})
	t.done.Add(1)
	go func() {
		defer t.done.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
			t.sample(d)
		}
	}()
}

func (t *tracer) sample(d *daemon) {
	start := time.Now()
	body := d.scrape()
	took := ms(time.Since(start))
	depths := scrapeValues(body, "swift_fleet_ring_depth{")
	t.mu.Lock()
	t.scrapes = append(t.scrapes, took)
	t.depths = append(t.depths, depths...)
	t.mu.Unlock()
}

func (t *tracer) stopSampler() {
	if t == nil || t.stop == nil {
		return
	}
	close(t.stop)
	t.done.Wait()
	t.stop = nil
}

// scrapeValues returns the values of every exposition line starting
// with prefix.
func scrapeValues(body []byte, prefix string) []float64 {
	var out []float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out = append(out, v)
			}
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// batchFor returns the recorded batch of peer that carried stream
// offset at.
func (t *tracer) batchFor(peer event.PeerKey, at time.Duration) (batchRec, bool) {
	for i := range t.batches {
		b := &t.batches[i]
		if b.peer == peer && b.first <= at && at <= b.last {
			return *b, true
		}
	}
	return batchRec{}, false
}

// codecNsPerMsg decodes one pass of every connection's frames with the
// station's codec alone — bmp.Reader framing, the per-peer header and
// the allocation-free UPDATE decoder — and returns ns per message.
func codecNsPerMsg(conns []*connStream) (float64, error) {
	var msgs int
	var took time.Duration
	for _, c := range conns {
		var hdr bmp.PeerHeader
		var dec bgp.UpdateDecoder
		r := bmp.NewReader(bytes.NewReader(c.buf))
		start := time.Now()
		for {
			typ, body, err := r.Next()
			if err != nil {
				break
			}
			if typ != bmp.TypeRouteMonitoring {
				continue
			}
			rest, err := bmp.ParsePeerHeader(body, &hdr)
			if err != nil {
				return 0, err
			}
			h, err := bgp.ParseHeader(rest)
			if err != nil {
				return 0, err
			}
			if err := dec.Decode(rest[bgp.HeaderLen:h.Len]); err != nil {
				return 0, err
			}
			msgs++
		}
		took += time.Since(start)
	}
	return ratio(float64(took.Nanoseconds()), float64(msgs)), nil
}

// span is one traced interval; spans of one trigger share id.
type span struct {
	ID    int     `json:"id"`
	Name  string  `json:"name"`
	Peer  string  `json:"peer,omitempty"`
	Start float64 `json:"start_us"` // since the measured phase began
	End   float64 `json:"end_us"`
}

func (t *tracer) addSpan(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func us(t0, t time.Time) float64 { return float64(t.Sub(t0).Nanoseconds()) / 1e3 }

// writeSpans writes the recorded spans to <out>/spans-<workload>-<seed>.json.
func (t *tracer) writeSpans(cfg runConfig, workload string, t0 time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	slices.SortFunc(t.spans, func(a, b span) int {
		if a.ID != b.ID {
			return a.ID - b.ID
		}
		if a.Start < b.Start {
			return -1
		}
		if a.Start > b.Start {
			return 1
		}
		return 0
	})
	buf, err := json.Marshal(map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"t0_unix_ns": t0.UnixNano(),
		"spans":      t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.json", workload, cfg.seed)), buf, 0o644)
}

// stationLayers fills the bmp metrics from the station's counters over
// the measured phase and the sink wrappers' batch records.
func (t *tracer) stationLayers(out map[string]metric, before, after bmp.StationMetrics) {
	out["bmp.msgs"] = metric{float64(after.Messages - before.Messages), "count"}
	out["bmp.bytes"] = metric{float64(after.Bytes - before.Bytes), "bytes"}
	out["bmp.decode_errors"] = metric{float64(after.DecodeErrors - before.DecodeErrors), "count"}
	var events int
	var wait time.Duration
	for _, b := range t.batches {
		events += b.n
		wait += b.exit.Sub(b.enter)
	}
	out["bmp.batches"] = metric{float64(len(t.batches)), "count"}
	out["bmp.events_per_batch"] = metric{ratio(float64(events), float64(len(t.batches))), "events"}
	out["controller.enqueue_wait_s"] = metric{wait.Seconds(), "s"}
	out["telemetry.scrape_ms"] = metric{median(slices.Clone(t.scrapes)), "ms"}
}

// controllerLayers fills the shard-ring metrics from the registry: the
// backpressure counter from the final scrape and the depth gauge's
// sampled distribution.
func (t *tracer) controllerLayers(out map[string]metric, lastScrape []byte) {
	out["controller.ring_full"] = metric{sum(scrapeValues(lastScrape, "swift_fleet_ring_full_total")), "count"}
	out["controller.ring_depth_p99"] = metric{quantile(slices.Clone(t.depths), 0.99), "count"}
}

// ribLayers fills the RIB and provisioning costs timed by the
// provisioner wrapper, and the shared pool's size.
func (t *tracer) ribLayers(out map[string]metric, st rib.PoolStats) {
	out["rib.learn_ns_per_route"] = metric{ratio(float64(t.learnTime.Nanoseconds()), float64(t.learnN)), "ns"}
	out["rib.pool_paths"] = metric{float64(st.Paths), "count"}
	out["rib.pool_links"] = metric{float64(st.Links), "count"}
	var prov time.Duration
	for _, d := range t.provTime {
		prov += d
	}
	out["reroute.provision_ms_per_peer"] = metric{ratio(ms(prov), float64(len(t.provTime))), "ms"}
}

// directFleetEvents caps the no-BMP fleet replay.
const directFleetEvents = 1_000_000

// directFleetRate is the same-host baseline for the station: the sent
// events, already decoded, pushed through Fleet.Apply into a fleet set
// up like the measured one, in prefix-events per second until
// Fleet.Sync returns.
func directFleetRate(localAS uint32, alt alternates, conns []*connStream, tables [][][]route, gens []*generator) (float64, error) {
	cfg, _, _ := fleetConfig(localAS, alt, controller.FleetObserver{})
	f := controller.NewFleet(cfg)
	defer f.Close()
	err := parallel(len(conns), func(ci int) error {
		for pi, p := range conns[ci].peers {
			for _, r := range tables[ci][pi] {
				f.Learn(p.key, r.prefix, r.path)
			}
			if err := f.Provision(p.key); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return timeFleetApply(f, conns, gens)
}

// timeFleetApply replays up to directFleetEvents of the sent events
// into f through Fleet.Apply, one producer goroutine per connection as
// the station has, and returns prefix-events per second.
func timeFleetApply(f *controller.Fleet, conns []*connStream, gens []*generator) (float64, error) {
	batches := make([][]event.Batch, len(conns))
	var n int
	for ci, c := range conns {
		var cn int
		forEachSent(c, gens[ci], -1, func(_ event.PeerKey, b event.Batch) {
			if cn < directFleetEvents/len(conns) {
				batches[ci] = append(batches[ci], slices.Clone(b))
				cn += len(b)
			}
		})
		n += cn
	}
	start := time.Now()
	err := parallel(len(conns), func(ci int) error {
		for _, b := range batches[ci] {
			if err := f.Apply(b); err != nil {
				return err
			}
		}
		return nil
	})
	f.Sync()
	return float64(n) / time.Since(start).Seconds(), err
}

// churnLayers computes the traced bmp-churn run's per-layer metrics.
// Every batch is a hand-off sample here (churn has no triggers); each
// gets one span id covering its write and its sink hand-off.
func (t *tracer) churnLayers(in *churnInputs, m *churnRun) map[string]metric {
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	t.stationLayers(out, m.stBefore, m.stAfter)
	if ns, err := codecNsPerMsg(in.conns); err == nil {
		set("bmp.codec_ns_per_msg", ns, "ns")
	}
	idx := buildIndex(in.conns)
	var handoff []float64
	for i, b := range t.batches {
		ref, ok := lookup(in.conns, idx, b.peer, b.last)
		if !ok {
			continue
		}
		ws, we := m.gens[ref.conn].log.writeAt(ref.pass*int64(len(in.conns[ref.conn].src)) + int64(ref.frame))
		wstart := m.t0.Add(ws)
		handoff = append(handoff, ms(b.enter.Sub(wstart)))
		if i%64 == 0 { // every batch is timed; one in 64 is kept as spans
			peer := b.peer.String()
			t.spans = append(t.spans,
				span{ID: i + 1, Name: "loadgen.write", Peer: peer, Start: us(m.t0, wstart), End: us(m.t0, m.t0.Add(we))},
				span{ID: i + 1, Name: "bmp.handoff (write → sink Apply)", Peer: peer, Start: us(m.t0, wstart), End: us(m.t0, b.enter)},
				span{ID: i + 1, Name: "controller.enqueue (FleetPeer.Apply)", Peer: peer, Start: us(m.t0, b.enter), End: us(m.t0, b.exit)})
		}
	}
	set("bmp.handoff_ms_p50", median(slices.Clone(handoff)), "ms")
	set("bmp.handoff_ms_p99", quantile(handoff, 0.99), "ms")
	t.controllerLayers(out, m.scrape)
	set("swift.apply_ns_per_event", ratio(float64(m.replay.Nanoseconds()), float64(m.replayN)), "ns")
	var busy float64
	for _, g := range m.gens {
		busy = max(busy, g.log.busyShare())
	}
	set("loadgen.busy_share", busy, "ratio")
	set("snapshot.write_s", in.snapTime.Seconds(), "s")
	set("snapshot.restore_s", median(slices.Clone(m.restore)), "s")
	set("snapshot.bytes", float64(in.snapSize), "bytes")
	if f, err := restoreFile(in); err == nil {
		st := f.Pool().Stats()
		set("rib.pool_paths", float64(st.Paths), "count")
		set("rib.pool_links", float64(st.Links), "count")
		rate, err := timeFleetApply(f, in.conns, m.gens)
		f.Close()
		if err == nil {
			set("controller.direct_apply_events_per_s", rate, "events/s")
			set("controller.station_fleet_ratio", ratio(m.rate, rate), "ratio")
		}
	}
	return out
}
