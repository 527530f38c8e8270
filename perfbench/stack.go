package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"swift/internal/bmp"
	"swift/internal/controller"
	"swift/internal/event"
	"swift/internal/inference"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/telemetry"
	"swift/internal/telemetry/ops"
)

// route is one table entry: a prefix and its AS path (neighbor first).
type route struct {
	prefix netaddr.Prefix
	path   []uint32
}

// alternates is the -alternates-rib preload: one neighbor's table,
// learned into every peer's engine as it is created.
type alternates struct {
	as     uint32
	routes []route
}

// daemon is the swiftd -bmp-listen stack: an instrumented fleet, the
// ops handler over its registry, and a BMP station on a loopback
// listener.
type daemon struct {
	fleet   *controller.Fleet
	station *bmp.Station
	ops     http.Handler
	addr    string
	served  chan error
}

// fleetConfig builds the fleet configuration exactly as swiftd's runBMP
// does — FleetTelemetry instrumentation, inference.Default(), the
// alternates preload in OnPeer, fusion off — with the benchmark's
// observer in place of the logging one.
func fleetConfig(localAS uint32, alt alternates, obs controller.FleetObserver) (controller.FleetConfig, *telemetry.Registry, *telemetry.BurstRing) {
	reg := telemetry.NewRegistry()
	ring := telemetry.NewBurstRing(256)
	ft := controller.NewFleetTelemetry(reg, ring)
	cfg := ft.Instrument(controller.FleetConfig{
		Engine: func(key controller.PeerKey) swiftengine.Config {
			cfg := swiftengine.Config{
				LocalAS:         localAS,
				PrimaryNeighbor: key.AS,
			}
			cfg.Inference = inference.Default()
			return cfg
		},
		Observer: obs,
		OnPeer: func(p *controller.FleetPeer) {
			for _, r := range alt.routes {
				p.LearnAlternate(alt.as, r.prefix, r.path)
			}
		},
	})
	return cfg, reg, ring
}

// engineConfig is the per-peer engine configuration the fleet factory
// produces, for direct in-process replays that must match the fleet.
func engineConfig(localAS uint32, key event.PeerKey) swiftengine.Config {
	cfg := swiftengine.Config{LocalAS: localAS, PrimaryNeighbor: key.AS}
	cfg.Inference = inference.Default()
	return cfg
}

// startDaemon serves a station over fleet on a fresh loopback listener.
// sink, when non-nil, stands between the station and the fleet (the
// traced run's wrappers).
func startDaemon(fleet *controller.Fleet, reg *telemetry.Registry, ring *telemetry.BurstRing, sink event.Sink) (*daemon, error) {
	if sink == nil {
		sink = fleet
	}
	station := bmp.NewStation(bmp.StationConfig{Sink: sink, TableSettle: 3 * time.Second})
	d := &daemon{
		fleet:   fleet,
		station: station,
		ops:     ops.NewHandler(ops.Config{Registry: reg, Ring: ring, Fleet: fleet, Station: station}),
		served:  make(chan error, 1),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.addr = ln.Addr().String()
	go func() { d.served <- station.Serve(ln) }()
	return d, nil
}

// scrape renders /metrics through the ops handler, as an operator's
// collector would, and returns the body.
func (d *daemon) scrape() []byte {
	rec := httptest.NewRecorder()
	d.ops.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.Bytes()
}

// waitIdle blocks until the station has no open router connection and
// every batch it handed off has been applied.
func (d *daemon) waitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for d.station.Metrics().Conns > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("station still has %d connections after %v", d.station.Metrics().Conns, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	d.fleet.Sync()
	return nil
}

// stop closes the station and the fleet and waits for both. Serve's
// own result is not an error here: a Serve that had not started when
// the station closed reports the closed station, and closes the
// listener itself.
func (d *daemon) stop() error {
	err := d.station.Close()
	<-d.served
	d.fleet.Close()
	return err
}

// hookLog collects the fleet observer callbacks the benchmark needs,
// stamped with the wall clock when they fire.
type hookLog struct {
	mu         sync.Mutex
	decisions  []decisionRec
	burstStart []peerTime
	burstEnd   []peerTime
	provisions []provisionRec
	provisionC chan struct{} // one send per initial provision, when set
}

// decisionRec is one OnDecision call. Its Decision drops Predicted (the
// engine's own log keeps it) so the record outlives the fleet cheaply.
type decisionRec struct {
	peer event.PeerKey
	d    swiftengine.Decision
	wall time.Time
}

type peerTime struct {
	peer event.PeerKey
	wall time.Time
}

type provisionRec struct {
	peer event.PeerKey
	info swiftengine.ProvisionInfo
	wall time.Time
}

func (h *hookLog) observer() controller.FleetObserver {
	return controller.FleetObserver{
		OnBurstStart: func(peer event.PeerKey, _ time.Duration, _ int) {
			now := time.Now()
			h.mu.Lock()
			h.burstStart = append(h.burstStart, peerTime{peer, now})
			h.mu.Unlock()
		},
		OnDecision: func(peer event.PeerKey, d swiftengine.Decision) {
			now := time.Now()
			d.Predicted = nil
			h.mu.Lock()
			h.decisions = append(h.decisions, decisionRec{peer, d, now})
			h.mu.Unlock()
		},
		OnBurstEnd: func(peer event.PeerKey, _ time.Duration, _ int) {
			now := time.Now()
			h.mu.Lock()
			h.burstEnd = append(h.burstEnd, peerTime{peer, now})
			h.mu.Unlock()
		},
		OnProvision: func(peer event.PeerKey, info swiftengine.ProvisionInfo) {
			now := time.Now()
			h.mu.Lock()
			h.provisions = append(h.provisions, provisionRec{peer, info, now})
			c := h.provisionC
			h.mu.Unlock()
			if c != nil && !info.Fallback {
				c <- struct{}{}
			}
		},
	}
}

// reset drops everything recorded so far (between set-up and the
// measured phase).
func (h *hookLog) reset() {
	h.mu.Lock()
	h.decisions, h.burstStart, h.burstEnd, h.provisions = nil, nil, nil, nil
	h.mu.Unlock()
}

// placeIDs assigns each peer a BGP identifier (from base upward) that
// pins it to shard want[i] of a default-sized fleet, found through the
// fleet's own shard gauge rather than its hash. Identifiers derived
// from the AS alone would put every peer on one shard of two; fixing
// the placement keeps seeds comparable and spreads the load as a
// balanced deployment does.
func placeIDs(ases []uint32, want []int, base uint32) ([]uint32, error) {
	f := controller.NewFleet(controller.FleetConfig{})
	defer f.Close()
	reg := telemetry.NewRegistry()
	controller.RegisterFleetMetrics(reg, f)
	workers := runtime.GOMAXPROCS(0)
	ids := make([]uint32, len(ases))
	for i, as := range ases {
		found := false
		for id := base; id < base+1024 && !found; id++ {
			key := event.PeerKey{AS: as, BGPID: id}
			f.Peer(key)
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				return nil, err
			}
			f.ClosePeer(key)
			line := fmt.Sprintf("swift_fleet_shard_peers{shard=\"%d\"} 1", want[i]%workers)
			if bytes.Contains(buf.Bytes(), []byte(line)) {
				ids[i], found = id, true
			}
		}
		if !found {
			return nil, fmt.Errorf("no BGP identifier places AS%d on shard %d", as, want[i]%workers)
		}
	}
	return ids, nil
}
