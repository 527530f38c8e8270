// Package swift is the public API of the SWIFT reproduction — a
// predictive fast-reroute framework for remote BGP outages (Holterbach,
// Vissicchio, Dainotti, Vanbever: "SWIFT: Predictive Fast Reroute",
// SIGCOMM 2017).
//
// The paper's workflow (§3) is a pipeline, and the API is shaped like
// one: every BGP feed reduces to one Event vocabulary (withdraw /
// announce / tick), Sources push ordered Batches of those events into
// Sinks, and Sinks report what they did through push-based Observer
// hooks. A SWIFTED router feeds each BGP session's stream into an
// Engine; the engine maintains the session RIB, watches for withdrawal
// bursts, infers the failed AS link(s) from the first few thousand
// messages, and installs a handful of tag-based rules into a two-stage
// forwarding table that reroutes every affected prefix at once:
//
//	cfg := swift.Config{LocalAS: 65001, PrimaryNeighbor: 65010}
//	cfg.Observer.OnDecision = func(d swift.Decision) { log.Println(d.Result.Links) }
//	engine := swift.New(cfg)
//	// table transfer
//	engine.LearnPrimary(prefix, asPath)
//	engine.LearnAlternate(neighborAS, prefix, asPath)
//	engine.Provision()
//	// live stream: any Source, or hand-built batches
//	engine.Apply(swift.Batch{
//		swift.WithdrawEvent(at, prefix),
//		swift.AnnounceEvent(at, prefix, newPath),
//	})
//	// inspect
//	engine.Decisions()              // accepted inferences + installed rules
//	engine.FIB().ForwardPrefix(p)   // where a packet goes right now
//
// Engine and Fleet both satisfy Sink, so single-session and
// collector-scale deployments are interchangeable behind the same
// Sources: a BMPStation demuxes live RFC 7854 feeds, an MRTSource
// replays collector archives, and synthetic burst generators emit the
// same events. Events carry their session's PeerKey — an Engine
// ignores it, a Fleet routes on it.
//
// The subsystems the engine composes are exported for advanced use:
// inference (the Fit-Score algorithm of §4), encoding (the tag scheme of
// §5), reroute (backup next-hop planning), dataplane (the two-stage
// FIB), burst (detection), plus the substrates used by the evaluation —
// a BGP-4 wire codec and speaker, an MRT trace codec, an AS-topology
// generator, a C-BGP-equivalent simulator, and a RouteViews-like trace
// synthesizer.
package swift

import (
	"time"

	"swift/internal/bmp"
	"swift/internal/burst"
	"swift/internal/controller"
	"swift/internal/encoding"
	"swift/internal/event"
	"swift/internal/fusion"
	"swift/internal/inference"
	"swift/internal/mrt"
	"swift/internal/netaddr"
	"swift/internal/reroute"
	swiftengine "swift/internal/swift"
	"swift/internal/telemetry"
	"swift/internal/topology"
)

// Event-stream vocabulary: every feed in the system speaks it.
type (
	// Event is one observation on a BGP session's stream: a withdraw,
	// an announce, or a clock tick.
	Event = event.Event
	// EventKind discriminates the event flavours.
	EventKind = event.Kind
	// Batch is an ordered group of events applied in one hand-off.
	Batch = event.Batch
	// Sink consumes event batches; Engine and Fleet both satisfy it.
	Sink = event.Sink
	// Source pushes event batches into a Sink; BMPStation, MRTSource
	// and the synthetic generators satisfy it.
	Source = event.Source
	// Provisioner is the optional table-transfer surface of a Sink.
	Provisioner = event.Provisioner
	// PeerKey identifies the session an event was observed on.
	PeerKey = event.PeerKey
	// StreamClock converts wall-clock timestamps into monotonic stream
	// offsets.
	StreamClock = event.StreamClock
)

// Event kinds.
const (
	KindWithdraw = event.KindWithdraw
	KindAnnounce = event.KindAnnounce
	KindTick     = event.KindTick
)

// WithdrawEvent builds a withdrawal event.
func WithdrawEvent(at time.Duration, p Prefix) Event { return event.Withdraw(at, p) }

// AnnounceEvent builds an announcement event (the path is retained, not
// copied).
func AnnounceEvent(at time.Duration, p Prefix, path []uint32) Event {
	return event.Announce(at, p, path)
}

// TickEvent builds a clock-advance event.
func TickEvent(at time.Duration) Event { return event.Tick(at) }

// Core engine types.
type (
	// Engine is the per-session SWIFT pipeline (§3's workflow). It is a
	// Sink: feed it event Batches through Apply.
	Engine = swiftengine.Engine
	// Config assembles the engine's tunables; zero values select the
	// paper's defaults.
	Config = swiftengine.Config
	// Observer is the engine's push-notification surface.
	Observer = swiftengine.Observer
	// ProvisionInfo describes one successful Provision pass.
	ProvisionInfo = swiftengine.ProvisionInfo
	// Decision records one accepted inference and its data-plane action.
	Decision = swiftengine.Decision
)

// Algorithm configuration types.
type (
	// InferenceConfig tunes the §4 inference algorithm.
	InferenceConfig = inference.Config
	// EncodingConfig sizes the §5 tag encoding.
	EncodingConfig = encoding.Config
	// BurstConfig tunes burst detection.
	BurstConfig = burst.Config
	// ReroutePolicy expresses the operator's backup preferences.
	ReroutePolicy = reroute.Policy
	// InferenceResult is a raw inference outcome.
	InferenceResult = inference.Result
)

// Addressing and topology types.
type (
	// Prefix is a compact IPv4 CIDR prefix.
	Prefix = netaddr.Prefix
	// Link is an undirected AS adjacency.
	Link = topology.Link
	// Tag is a packed SWIFT data-plane tag.
	Tag = encoding.Tag
	// Rule is a ternary match rule over tags.
	Rule = encoding.Rule
)

// Multi-peer ingestion types: a BMP (RFC 7854) station demuxes a
// monitored router's per-peer streams into a fleet of engines, one per
// peer — the paper's "one engine per session, in parallel" at
// collector scale.
type (
	// Fleet is a lock-striped pool of per-peer engines. It is a Sink
	// (events route on their PeerKey) and a Provisioner.
	Fleet = controller.Fleet
	// FleetConfig parameterizes a Fleet.
	FleetConfig = controller.FleetConfig
	// FleetObserver is the fleet's peer-attributed Observer surface.
	FleetObserver = controller.FleetObserver
	// FleetPeer is one peer's engine plus its batched delivery queue.
	FleetPeer = controller.FleetPeer
	// FleetMetrics is an aggregate snapshot across the pool.
	FleetMetrics = controller.FleetMetrics
	// PeerDecision is one engine decision attributed to its peer.
	PeerDecision = controller.PeerDecision
	// BMPStation accepts BMP router connections and feeds a Sink.
	BMPStation = bmp.Station
	// BMPStationConfig parameterizes a BMPStation.
	BMPStationConfig = bmp.StationConfig
	// BMPStationMetrics snapshots a station's ingestion counters.
	BMPStationMetrics = bmp.StationMetrics
	// MRTSource replays MRT collector archives (RIB snapshot + update
	// stream) into any Sink.
	MRTSource = mrt.Source
)

// Cross-peer evidence fusion: a fleet configured with
// FleetConfig.Fusion shares one FusionAggregator across its engines —
// per-peer inferences become fleet evidence, corroborated links become
// verdicts, and verdicts pre-trigger reroutes on lagging sessions.
type (
	// FusionConfig parameterizes the aggregator (set it on
	// FleetConfig.Fusion; zero values take calibrated defaults).
	FusionConfig = fusion.Config
	// FusionAggregator is the fleet-level evidence store; reach it via
	// Fleet.Fusion for stats and verdict snapshots.
	FusionAggregator = fusion.Aggregator
	// FusionVerdict is a confirmed failed-link set with its fused
	// Fit-Score, supporter count and corroborated prefix union.
	FusionVerdict = fusion.Verdict
	// FusionStats is an aggregator's counter snapshot.
	FusionStats = fusion.Stats
)

// Telemetry surface. A MetricsRegistry holds Prometheus-exposable
// families; EngineMetrics is the pre-resolved handle set an engine
// reports into (zero-allocation on the steady-state hot path); a
// BurstRing is the bounded flight recorder behind the ops plane's
// /bursts endpoint; FleetTelemetry wires all of it through a Fleet.
type (
	// MetricsRegistry holds metric families and renders them in
	// Prometheus text exposition format (it is a /metrics http.Handler).
	MetricsRegistry = telemetry.Registry
	// EngineMetrics is an engine's pre-resolved metric handle set; set
	// it on Config.Metrics. The zero value (all-nil handles) disables
	// instrumentation at the cost of one branch per flush.
	EngineMetrics = swiftengine.Metrics
	// BurstRing is a bounded ring of burst lifecycle trace records.
	BurstRing = telemetry.BurstRing
	// BurstRecord is one burst's lifecycle in the ring.
	BurstRecord = telemetry.BurstRecord
	// FleetTelemetry owns a fleet's per-peer metric families.
	FleetTelemetry = controller.FleetTelemetry
	// PeerStatus is one peer's operational snapshot (the ops plane's
	// /peers row).
	PeerStatus = controller.PeerStatus
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewBurstRing builds a burst trace ring keeping the last capacity
// bursts (default 256 when capacity <= 0).
func NewBurstRing(capacity int) *BurstRing { return telemetry.NewBurstRing(capacity) }

// NewFleetTelemetry registers the per-peer engine metric families on
// reg. Pass the fleet's FleetConfig through Instrument before NewFleet
// and call RegisterFleetMetrics after; every engine then reports into
// the registry and the ring.
func NewFleetTelemetry(reg *MetricsRegistry, ring *BurstRing) *FleetTelemetry {
	return controller.NewFleetTelemetry(reg, ring)
}

// RegisterFleetMetrics exports a fleet's aggregate and scrape-time
// state (pool occupancy, per-peer FIB sizes, delivery counters) on reg.
func RegisterFleetMetrics(reg *MetricsRegistry, f *Fleet) {
	controller.RegisterFleetMetrics(reg, f)
}

// New builds an Engine. Load routes with LearnPrimary/LearnAlternate,
// call Provision, then stream event batches through Apply.
func New(cfg Config) *Engine { return swiftengine.New(cfg) }

// NewFleet builds an empty engine fleet; peers are created on first
// use from the configured engine factory.
func NewFleet(cfg FleetConfig) *Fleet { return controller.NewFleet(cfg) }

// NewBMPStation builds a BMP collector over an existing Sink, normally
// a Fleet. Drive it with Serve (a TCP listener) or ServeConn (any
// net.Conn).
func NewBMPStation(cfg BMPStationConfig) *BMPStation { return bmp.NewStation(cfg) }

// DefaultInference returns the paper's inference configuration
// (wWS:wPS = 3:1, 2.5k trigger, history model on).
func DefaultInference() InferenceConfig { return inference.Default() }

// DefaultEncoding returns the paper's encoding configuration (48-bit
// tags, 18 path bits, depth 5, 1,500-prefix link threshold).
func DefaultEncoding() EncodingConfig { return encoding.Default() }

// ParsePrefix parses dotted-quad CIDR notation ("192.0.2.0/24").
func ParsePrefix(s string) (Prefix, error) { return netaddr.ParsePrefix(s) }

// MustParsePrefix is ParsePrefix for constants; it panics on error.
func MustParsePrefix(s string) Prefix { return netaddr.MustParsePrefix(s) }

// MakeLink builds a canonical AS link.
func MakeLink(a, b uint32) Link { return topology.MakeLink(a, b) }
