// Command swiftd runs a SWIFT controller as a daemon (§7's deployment
// scheme). Both ingestion modes feed one engine fleet: one SWIFT engine
// per BGP session, sharded across dataplane workers, reporting every
// burst, inference and reroute it performs. The modes differ only in
// where the sessions come from.
//
// eBGP mode maintains one live session over TCP with a peer of the
// protected router (the ExaBGP role of §7). Listen for one passive
// session (the peer dials in):
//
//	swiftd -local-as 65001 -router-id 1.1.1.1 -listen :1790 -primary-as 65010
//
// Or dial the peer actively:
//
//	swiftd -local-as 65001 -router-id 1.1.1.1 -dial 192.0.2.1:179 -primary-as 65010
//
// BMP mode (RFC 7854) accepts monitored-router connections and runs
// one engine per monitored peer — the multi-session deployment that
// watches every peer of the protected router at once:
//
//	swiftd -local-as 65001 -bmp-listen :11019
//
// Each peer's engine provisions from its table transfer — the eBGP
// peer's opening announcements, or the in-band dump a BMP router sends
// after Peer Up — which End-of-RIB or the -settle quiet period ends.
// The engine's primary neighbor is the session's peer AS. Alternates
// can be preloaded from a TABLE_DUMP_V2 MRT snapshot with
// -alternates-rib; the snapshot is loaded into every peer's engine.
//
// Either mode exposes an ops HTTP plane with -http (e.g. -http :8080):
// GET /metrics serves Prometheus text exposition, /healthz liveness,
// /peers per-peer status JSON, /bursts the burst trace ring, and
// /debug/pprof/ the Go profiler. Peers are labelled by their session
// key, AS<as>/<bgpid>. -metrics-interval controls the periodic stats
// log line (0 disables it) and -log-level filters the daemon log
// (debug, info, warn, error).
//
// -snapshot-dir enables warm restarts in either mode: the fleet is
// checkpointed to <dir>/fleet.snap on SIGUSR1, on POST /snapshot and on
// shutdown, and a start that finds a snapshot restores every peer's
// provisioned engine from it; a restored peer's returning session skips
// its table transfer and streams live at once. /healthz reports whether
// the start was warm or cold.
//
// SIGINT/SIGTERM shut either mode down cleanly: the eBGP session closes
// with a CEASE notification or the BMP station closes its connections,
// the fleet drains every queued batch, and the final status is printed
// before exit.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"swift/internal/bgpd"
	"swift/internal/bmp"
	"swift/internal/controller"
	"swift/internal/fusion"
	"swift/internal/inference"
	"swift/internal/mrt"
	swiftengine "swift/internal/swift"
	"swift/internal/telemetry"
	"swift/internal/telemetry/logging"
	"swift/internal/telemetry/ops"
)

func main() {
	var (
		localAS    = flag.Uint("local-as", 65001, "local AS number")
		routerID   = flag.String("router-id", "10.0.0.1", "BGP identifier (IPv4)")
		listen     = flag.String("listen", "", "listen address for a passive eBGP session (e.g. :1790)")
		dial       = flag.String("dial", "", "peer address to dial an eBGP session actively")
		bmpListen  = flag.String("bmp-listen", "", "listen address for BMP monitored routers (e.g. :11019)")
		primaryAS  = flag.Uint("primary-as", 0, "expected peer AS (0 = accept any; eBGP mode)")
		altRIB     = flag.String("alternates-rib", "", "MRT TABLE_DUMP_V2 file with alternate routes")
		altAS      = flag.Uint("alternate-as", 0, "neighbor AS owning the alternate routes")
		settle     = flag.Duration("settle", 3*time.Second, "quiet period ending a table transfer")
		httpAddr   = flag.String("http", "", "ops HTTP listen address (e.g. :8080; empty disables)")
		metricsInt = flag.Duration("metrics-interval", 10*time.Second, "periodic stats log interval (0 disables)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		ringSize   = flag.Int("burst-ring", 256, "burst trace ring capacity (records kept for /bursts)")
		snapDir    = flag.String("snapshot-dir", "", "directory for warm-restart snapshots: restore on start, checkpoint on SIGUSR1, POST /snapshot and shutdown")
		fused      = flag.Bool("fusion", false, "enable fleet-level evidence fusion across BMP-monitored sessions (BMP mode only)")
		fusionK    = flag.Int("fusion-k", 0, "fusion: peers whose corroborating evidence confirms a link (0 = default)")
		fusionThr  = flag.Float64("fusion-threshold", 0, "fusion: fused Fit-Score a link must reach to be confirmed (0 = default)")
	)
	flag.Parse()

	lvl, err := logging.ParseLevel(*logLevel)
	if err != nil {
		logging.New(os.Stderr, logging.Info).Fatalf("%v", err)
	}
	logger := logging.New(os.Stderr, lvl)

	modes := 0
	for _, m := range []string{*listen, *dial, *bmpListen} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		logger.Fatalf("exactly one of -listen, -dial or -bmp-listen is required")
	}

	var alternates []mrt.RIBRecord
	if *altRIB != "" {
		if *altAS == 0 {
			logger.Fatalf("-alternates-rib requires -alternate-as")
		}
		var err error
		alternates, err = loadRIB(*altRIB)
		if err != nil {
			logger.Fatalf("loading alternates: %v", err)
		}
		logger.Infof("loaded %d alternate RIB records from %s", len(alternates), *altRIB)
	}
	var fusionCfg *fusion.Config
	if *fused {
		if *bmpListen == "" {
			logger.Fatalf("-fusion requires -bmp-listen (fusion spans a fleet of monitored sessions)")
		}
		fusionCfg = &fusion.Config{K: *fusionK, FuseThreshold: *fusionThr}
	}

	// Graceful shutdown on SIGINT/SIGTERM: both modes get a signal
	// channel and finish their writes instead of dying mid-stream.
	// With -snapshot-dir, SIGUSR1 additionally checkpoints the fleet
	// without shutting down.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if *snapDir != "" {
		signal.Notify(sigs, syscall.SIGUSR1)
	}

	d := &daemon{
		logger:   logger,
		registry: telemetry.NewRegistry(),
		ring:     telemetry.NewBurstRing(*ringSize),
		interval: *metricsInt,
		snapDir:  *snapDir,
		snapPath: filepath.Join(*snapDir, "fleet.snap"),
	}
	d.openFleet(fleetConfig(uint32(*localAS), alternates, uint32(*altAS), fusionCfg, logger))

	opsCfg := ops.Config{Fleet: d.fleet}
	var station *bmp.Station
	if *bmpListen != "" {
		station = bmp.NewStation(bmp.StationConfig{
			Sink:        d.fleet,
			TableSettle: *settle,
			Logf:        logger.Infof,
		})
		opsCfg.Station = station
	}
	if d.snapDir != "" {
		opsCfg.Snapshot = d.checkpoint
		opsCfg.RestoreStatus = func() string { return d.restoreStatus }
	}
	d.serveOps(*httpAddr, opsCfg)

	var in ingest
	if station != nil {
		in = bmpIngest(logger, station, *bmpListen)
	} else {
		sess := d.establish(*listen, *dial, bgpd.Config{
			LocalAS:     uint32(*localAS),
			RouterID:    parseID(logger, *routerID),
			TableSettle: *settle,
			Logf:        logger.Infof,
		}, sigs)
		if sess == nil {
			d.fleet.Close()
			return
		}
		if *primaryAS != 0 && sess.PeerAS() != uint32(*primaryAS) {
			sess.Close()
			logger.Fatalf("peer AS %d, expected %d", sess.PeerAS(), *primaryAS)
		}
		in = ingest{
			serve: func() error { return sess.Run(d.fleet) },
			stop: func() {
				if err := sess.Close(); err != nil {
					logger.Warnf("session close: %v", err)
				}
			},
		}
	}
	d.run(in, sigs)
}

// fleetConfig is the engine fleet both modes run: every peer session
// gets an engine whose primary neighbor is the session's peer AS, with
// the alternates RIB preloaded. The fleet's Observer hooks push every
// burst, decision and fallback straight into the daemon log as they
// happen — no decision polling, no log scraping.
func fleetConfig(localAS uint32, alternates []mrt.RIBRecord, altAS uint32, fused *fusion.Config, logger *logging.Logger) controller.FleetConfig {
	return controller.FleetConfig{
		Fusion: fused,
		Engine: func(key controller.PeerKey) swiftengine.Config {
			cfg := swiftengine.Config{
				LocalAS:         localAS,
				PrimaryNeighbor: key.AS,
			}
			cfg.Inference = inference.Default()
			return cfg
		},
		Observer: controller.LoggingFleetObserver(logger.Infof),
		OnPeer: func(p *controller.FleetPeer) {
			for _, rec := range alternates {
				for _, e := range rec.Entries {
					p.LearnAlternate(altAS, rec.Prefix, e.Attrs.ASPath)
				}
			}
		},
		Logf: logger.Debugf,
	}
}

// daemon carries the fleet and the telemetry spine both ingestion
// modes share.
type daemon struct {
	logger   *logging.Logger
	registry *telemetry.Registry
	ring     *telemetry.BurstRing
	interval time.Duration
	// snapDir, when set, holds the warm-restart snapshot at snapPath.
	snapDir  string
	snapPath string

	fleet         *controller.Fleet
	restoreStatus string
}

// openFleet instruments cfg and builds the fleet. Warm restart: a
// snapshot in -snapshot-dir restores the whole provisioned fleet before
// any session opens; any failure falls back to a cold start (peers
// re-transfer their tables on connect).
func (d *daemon) openFleet(cfg controller.FleetConfig) {
	logger := d.logger
	cfg = controller.NewFleetTelemetry(d.registry, d.ring).Instrument(cfg)
	d.restoreStatus = "restore: cold start (no snapshot)"
	if d.snapDir != "" {
		if file, err := os.Open(d.snapPath); err == nil {
			start := time.Now()
			restored, rerr := controller.RestoreFleet(file, cfg)
			file.Close()
			if rerr != nil {
				logger.Warnf("snapshot restore from %s failed, cold start: %v", d.snapPath, rerr)
				d.restoreStatus = fmt.Sprintf("restore: failed (%v), cold start", rerr)
			} else {
				d.fleet = restored
				took := time.Since(start).Round(time.Millisecond)
				d.restoreStatus = fmt.Sprintf("restore: warm, %d peers from %s in %s", d.fleet.Len(), d.snapPath, took)
				logger.Infof("restored %d peers from %s in %s", d.fleet.Len(), d.snapPath, took)
			}
		} else if !os.IsNotExist(err) {
			logger.Warnf("snapshot %s unreadable, cold start: %v", d.snapPath, err)
			d.restoreStatus = fmt.Sprintf("restore: failed (%v), cold start", err)
		}
	}
	if d.fleet == nil {
		d.fleet = controller.NewFleet(cfg)
	}
}

// checkpoint writes the fleet snapshot with temp+rename so the restore
// path never sees a torn file; SIGUSR1, POST /snapshot and shutdown all
// funnel through it.
func (d *daemon) checkpoint() error {
	tmp, err := os.CreateTemp(d.snapDir, "fleet.snap.tmp*")
	if err != nil {
		return err
	}
	if err := d.fleet.Snapshot(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), d.snapPath); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// checkpointOn serves SIGUSR1 (a checkpoint without shutdown) and
// reports whether sig was one; every other signal means shut down.
func (d *daemon) checkpointOn(sig os.Signal) bool {
	if sig != syscall.SIGUSR1 {
		return false
	}
	if err := d.checkpoint(); err != nil {
		d.logger.Warnf("snapshot checkpoint: %v", err)
	} else {
		d.logger.Infof("snapshot checkpointed to %s", d.snapPath)
	}
	return true
}

// serveOps starts the ops HTTP listener when -http was given. The
// server dies with the process; nothing needs a graceful drain.
func (d *daemon) serveOps(addr string, cfg ops.Config) {
	if addr == "" {
		return
	}
	cfg.Registry = d.registry
	cfg.Ring = d.ring
	handler := ops.NewHandler(cfg)
	go func() {
		d.logger.Infof("ops HTTP listening on %s", addr)
		if err := http.ListenAndServe(addr, handler); err != nil {
			d.logger.Errorf("ops http: %v", err)
		}
	}()
}

// ingest is one mode's feed into the fleet.
type ingest struct {
	// serve streams into the fleet until the feed ends or stop is
	// called.
	serve func() error
	// stop ends the feed; it is idempotent.
	stop func()
	// status, when set, prefixes the periodic metrics line with the
	// feed's own counters.
	status func() string
}

// bmpIngest listens for monitored routers and serves them through the
// station.
func bmpIngest(logger *logging.Logger, station *bmp.Station, addr string) ingest {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	logger.Infof("BMP station listening on %s", addr)
	return ingest{
		serve: func() error { return station.Serve(ln) },
		stop: func() {
			if err := station.Close(); err != nil {
				logger.Warnf("station close: %v", err)
			}
		},
		status: func() string {
			m := station.Metrics()
			return fmt.Sprintf("conns=%d msgs=%d rm=%d bytes=%d decode_errs=%d | ",
				m.Conns, m.Messages, m.RouteMonitoring, m.Bytes, m.DecodeErrors)
		},
	}
}

// establish opens the eBGP session, accepting one passive connection or
// dialing the peer. A signal before the session is established aborts
// the wait; establish returns nil then.
func (d *daemon) establish(listen, dial string, cfg bgpd.Config, sigs <-chan os.Signal) *bgpd.Session {
	logger := d.logger
	if listen != "" {
		l, err := net.Listen("tcp", listen)
		if err != nil {
			logger.Fatalf("%v", err)
		}
		logger.Infof("listening on %s", listen)
		// The watcher owns the decision of whether a signal interrupted
		// the wait; reading its verdict (rather than polling a channel)
		// makes the signal-vs-established race deterministic — a
		// consumed signal is always honored, never dropped.
		established := make(chan struct{})
		tookSignal := make(chan bool, 1)
		go func() {
			for {
				select {
				case sig := <-sigs:
					if d.checkpointOn(sig) {
						continue
					}
					logger.Infof("%v: aborting before session establishment", sig)
					l.Close()
					tookSignal <- true
				case <-established:
					tookSignal <- false
				}
				return
			}
		}()
		sess, err := bgpd.Accept(l, cfg)
		close(established)
		if <-tookSignal {
			if err == nil {
				sess.Close()
			}
			return nil
		}
		if err != nil {
			logger.Fatalf("%v", err)
		}
		return sess
	}
	logger.Infof("dialing %s", dial)
	// Dial on a goroutine so a signal can interrupt the connect /
	// handshake instead of queuing behind it.
	type dialResult struct {
		sess *bgpd.Session
		err  error
	}
	dialed := make(chan dialResult, 1)
	go func() {
		s, err := bgpd.Dial(dial, cfg)
		dialed <- dialResult{s, err}
	}()
	for {
		select {
		case sig := <-sigs:
			if d.checkpointOn(sig) {
				continue
			}
			logger.Infof("%v: aborting dial", sig)
			return nil
		case r := <-dialed:
			if r.err != nil {
				logger.Fatalf("%v", r.err)
			}
			return r.sess
		}
	}
}

// run serves the ingest into the fleet until a shutdown signal or until
// the feed ends on its own, then drains: the feed stops, the final
// snapshot is taken (with -snapshot-dir) and the fleet applies every
// queued batch before the final status line.
func (d *daemon) run(in ingest, sigs <-chan os.Signal) {
	logger := d.logger
	served := make(chan error, 1)
	go func() { served <- in.serve() }()

	metricsC, stopMetrics := d.metricsC()
	defer stopMetrics()
	var err error
wait:
	for {
		select {
		case sig := <-sigs:
			if d.checkpointOn(sig) {
				continue
			}
			logger.Infof("%v: shutting down", sig)
			in.stop()
			err = <-served
			break wait
		case err = <-served:
			in.stop()
			break wait
		case <-metricsC:
			status := ""
			if in.status != nil {
				status = in.status()
			}
			logger.Infof("metrics: %s%s", status, d.fleet.Status())
		}
	}
	if d.snapDir != "" {
		// The feed has stopped, so this captures the fleet's final
		// state; the next start restores it.
		if err := d.checkpoint(); err != nil {
			logger.Warnf("shutdown snapshot: %v", err)
		} else {
			logger.Infof("shutdown snapshot written to %s", d.snapPath)
		}
	}
	d.fleet.Close()
	logger.Infof("final: %s", d.fleet.Status())
	if err != nil {
		logger.Fatalf("%v", err)
	}
}

// metricsC returns the periodic stats-log channel, nil (blocks forever
// in select) when -metrics-interval is 0.
func (d *daemon) metricsC() (<-chan time.Time, func()) {
	if d.interval <= 0 {
		return nil, func() {}
	}
	t := time.NewTicker(d.interval)
	return t.C, t.Stop
}

func parseID(logger *logging.Logger, s string) uint32 {
	ip := net.ParseIP(s).To4()
	if ip == nil {
		logger.Fatalf("bad router id %q", s)
	}
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// loadRIB reads every RIB_IPV4_UNICAST record of a TABLE_DUMP_V2 file.
func loadRIB(path string) ([]mrt.RIBRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []mrt.RIBRecord
	err = mrt.WalkRIBIPv4(f, func(rr *mrt.RIBRecord) error {
		out = append(out, *rr)
		return nil
	})
	return out, err
}
