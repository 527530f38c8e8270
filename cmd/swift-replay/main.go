// Command swift-replay runs the SWIFT engine over MRT trace files — a
// RIB snapshot (TABLE_DUMP_V2) plus an update stream (BGP4MP), i.e. the
// artifact pair RouteViews collectors publish and cmd/burstgen emits.
// It reports every burst the engine detects and every inference and
// reroute it performs, making it the offline analysis twin of swiftd.
//
// The replay is one mrt.Source feeding a one-peer Fleet, the same sink
// swiftd runs: the RIB snapshot loads through the fleet's
// table-transfer surface, the update records stream as timestamped
// event batches, and the engine's Observer hooks report bursts and
// reroutes as they happen.
//
// Usage:
//
//	burstgen -out traces -sessions 1
//	swift-replay -rib traces/asX-from-asY.rib.mrt \
//	             -updates traces/asX-from-asY.updates.mrt \
//	             -local-as X -peer-as Y
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"swift/internal/controller"
	"swift/internal/event"
	"swift/internal/inference"
	"swift/internal/mrt"
	swiftengine "swift/internal/swift"
	"swift/internal/telemetry/logging"
)

func main() {
	var (
		ribPath  = flag.String("rib", "", "TABLE_DUMP_V2 RIB snapshot (required)")
		updPath  = flag.String("updates", "", "BGP4MP update stream (required)")
		localAS  = flag.Uint("local-as", 0, "vantage AS number (required)")
		peerAS   = flag.Uint("peer-as", 0, "monitored peer AS number (required)")
		trigger  = flag.Int("trigger", 2500, "inference trigger threshold")
		start    = flag.Int("start-threshold", 1500, "burst start threshold")
		history  = flag.Bool("history", true, "use the plausibility gate")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()
	lvl, lerr := logging.ParseLevel(*logLevel)
	if lerr != nil {
		logging.New(os.Stderr, logging.Info).Fatalf("%v", lerr)
	}
	logger := logging.New(os.Stderr, lvl)
	if *ribPath == "" || *updPath == "" || *localAS == 0 || *peerAS == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// The Observer hooks are the replay's live reporting surface; Logf
	// stays unset so nothing is printed twice.
	fleet := controller.NewFleet(controller.FleetConfig{
		Engine: func(event.PeerKey) swiftengine.Config {
			cfg := swiftengine.Config{
				LocalAS:         uint32(*localAS),
				PrimaryNeighbor: uint32(*peerAS),
			}
			cfg.Observer = swiftengine.LoggingObserver(logger.Infof)
			cfg.Inference = inference.Default()
			cfg.Inference.TriggerEvery = *trigger
			cfg.Inference.UseHistory = *history
			cfg.Burst.StartThreshold = *start
			return cfg
		},
		Workers: 1,
	})

	rib, err := os.Open(*ribPath)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	defer rib.Close()
	upd, err := os.Open(*updPath)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	defer upd.Close()

	key := event.PeerKey{AS: uint32(*peerAS), BGPID: uint32(*peerAS)}
	src := &mrt.Source{
		RIB:       rib,
		Updates:   upd,
		Peer:      key,
		FinalTick: time.Hour, // close any open burst
	}
	if err := src.Run(fleet); err != nil {
		logger.Fatalf("replay: %v", err)
	}
	fleet.Close() // drains every queued batch; the engine stays readable

	fmt.Printf("\nreplayed %d per-prefix events over %d RIB routes\n", src.Events, src.Routes)
	var decisions []swiftengine.Decision
	var deferred int
	fleet.Peer(key).Do(func(e *swiftengine.Engine) {
		decisions, deferred = e.Decisions(), e.Deferred()
	})
	fmt.Printf("decisions: %d accepted, %d deferred by the gate\n", len(decisions), deferred)
	for i, d := range decisions {
		fmt.Printf("  #%d at %v: links %v (received %d, predicted %d, %d rules, %v)\n",
			i+1, d.At.Round(time.Millisecond), d.Result.Links, d.Result.Received,
			len(d.Predicted), d.RulesInstalled, d.DataplaneTime)
	}
}
