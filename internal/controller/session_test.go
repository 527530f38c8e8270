package controller

import (
	"bytes"
	"net"
	"slices"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/bgpd"
	"swift/internal/bgpsim"
	"swift/internal/event"
	"swift/internal/inference"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/topology"
)

// livePair returns two established sessions over an in-memory pipe:
// local is the SWIFT side (AS 1), peer plays AS 2's router.
func livePair(t *testing.T, settle time.Duration) (local, peer *bgpd.Session) {
	t.Helper()
	c1, c2 := net.Pipe()
	type res struct {
		s   *bgpd.Session
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := bgpd.Establish(c1, bgpd.Config{LocalAS: 1, RouterID: 1, TableSettle: settle})
		ch <- res{s, err}
	}()
	peer, err := bgpd.Establish(c2, bgpd.Config{LocalAS: 2, RouterID: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() {
		r.s.Close()
		peer.Close()
	})
	return r.s, peer
}

// newFleet builds a fleet the test closes after every session feeding
// it has stopped (cleanups run last-registered first).
func newFleet(t *testing.T, cfg FleetConfig) *Fleet {
	f := NewFleet(cfg)
	t.Cleanup(f.Close)
	return f
}

// runSession starts local.Run(fleet) and fails the test if it returns
// an error; the returned channel closes when Run has returned. Cleanup
// closes the session and waits for Run before the fleet closes, so a
// tick cannot land on a closed fleet.
func runSession(t *testing.T, local *bgpd.Session, fleet *Fleet) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := local.Run(fleet); err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	t.Cleanup(func() {
		local.Close()
		<-done
	})
	return done
}

// liveFig1 is the §7 fixture: the Fig. 1 network seen from AS 1, whose
// fleet engines key their primary neighbor on the session's peer AS
// (as swiftd builds them) and preload the AS 3 / AS 4 alternates.
type liveFig1 struct {
	netw *bgpsim.Network
	sols map[uint32]*bgpsim.OriginSolution
	cfg  FleetConfig
}

func newLiveFig1() *liveFig1 {
	netw := bgpsim.Fig1Network(1000)
	lf := &liveFig1{netw: netw, sols: netw.Solve(netw.Graph)}
	lf.cfg = FleetConfig{
		Engine: func(key PeerKey) swiftengine.Config {
			cfg := swiftengine.Config{LocalAS: 1, PrimaryNeighbor: key.AS}
			cfg.Inference = inference.Default()
			cfg.Inference.TriggerEvery = 250
			cfg.Inference.UseHistory = false
			cfg.Encoding.MinPrefixes = 100
			cfg.Burst.StartThreshold = 100
			return cfg
		},
		OnPeer: func(p *FleetPeer) {
			for origin, n := range netw.Origins {
				for _, nb := range []uint32{3, 4} {
					r, ok := lf.sols[origin].ExportTo(netw.Graph, netw.Policy, nb, 1)
					if !ok {
						continue
					}
					for i := 0; i < n; i++ {
						p.LearnAlternate(nb, netaddr.PrefixFor(origin, i), r.Path)
					}
				}
			}
		},
	}
	return lf
}

// sendTable has the peer transfer AS 2's table on the wire, closed by
// an End-of-RIB marker.
func (lf *liveFig1) sendTable(t *testing.T, peer *bgpd.Session) {
	t.Helper()
	for origin, n := range lf.netw.Origins {
		r, ok := lf.sols[origin].ExportTo(lf.netw.Graph, lf.netw.Policy, 2, 1)
		if !ok {
			continue
		}
		for i := 0; i < n; i += 500 {
			u := &bgp.Update{Attrs: bgp.Attrs{ASPath: r.Path, HasNextHop: true, NextHop: 2}}
			for j := i; j < min(i+500, n); j++ {
				u.NLRI = append(u.NLRI, netaddr.PrefixFor(origin, j))
			}
			if err := peer.Send(u); err != nil {
				t.Fatalf("send table: %v", err)
			}
		}
	}
	if err := peer.Send(&bgp.Update{}); err != nil {
		t.Fatalf("send End-of-RIB: %v", err)
	}
}

// sendEvents has the peer replay burst events on the wire, withdrawals
// packed as a router would, and returns how many events it sent.
func sendEvents(t *testing.T, peer *bgpd.Session, events []bgpsim.Event) uint64 {
	t.Helper()
	var wd []netaddr.Prefix
	flush := func() {
		for _, m := range bgp.PackWithdrawals(wd) {
			if err := peer.Send(m); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		wd = wd[:0]
	}
	for _, ev := range events {
		if ev.Kind == bgpsim.KindWithdraw {
			wd = append(wd, ev.Prefix)
			if len(wd) >= 400 {
				flush()
			}
			continue
		}
		flush()
		if err := peer.Send(&bgp.Update{
			Attrs: bgp.Attrs{ASPath: ev.Path, HasNextHop: true, NextHop: 2},
			NLRI:  []netaddr.Prefix{ev.Prefix},
		}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	flush()
	return uint64(len(events))
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// provisionedPeer waits for the session's table transfer to provision
// the keyed peer and returns it.
func provisionedPeer(t *testing.T, fleet *Fleet, key PeerKey) *FleetPeer {
	t.Helper()
	var p *FleetPeer
	waitFor(t, "provisioning", func() bool {
		var ok bool
		p, ok = fleet.Lookup(key)
		return ok && p.Provisioned()
	})
	return p
}

func forward(p *FleetPeer, pfx netaddr.Prefix) (nh uint32, ok bool) {
	p.Do(func(e *swiftengine.Engine) { nh, ok = e.FIB().ForwardPrefix(pfx) })
	return nh, ok
}

// streamBurst replays 95% of the Fig. 1 (5,6) failure on the wire —
// enough for the inference to converge on the failed link — waits for
// the fleet to apply all of it, and checks the mid-burst data plane: a
// not-yet-withdrawn S8 prefix leaves via AS 3 (the only (5,6)-free
// neighbor), not the blackholed AS 2. It returns the decision log.
func (lf *liveFig1) streamBurst(t *testing.T, peer *bgpd.Session, p *FleetPeer) []swiftengine.Decision {
	t.Helper()
	b, err := lf.netw.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(3))
	if err != nil {
		t.Fatal(err)
	}
	sent := sendEvents(t, peer, b.Events[:len(b.Events)*95/100])
	waitFor(t, "the burst to drain", func() bool {
		return p.withdrawals.Load()+p.announcements.Load() == sent
	})
	ds := p.Decisions()
	if len(ds) == 0 || !p.RerouteActive() {
		t.Fatalf("no live reroute: %d decisions, active=%v", len(ds), p.RerouteActive())
	}
	if links := ds[len(ds)-1].Result.Links; !slices.Contains(links, topology.MakeLink(5, 6)) {
		t.Errorf("final live inference = %v, want (5,6)", links)
	}
	var survivor netaddr.Prefix
	p.Do(func(e *swiftengine.Engine) {
		for i := lf.netw.Origins[8] - 1; i >= 0; i-- {
			if pfx := netaddr.PrefixFor(8, i); e.RIB().Path(pfx) != nil {
				survivor = pfx
				break
			}
		}
	})
	if survivor == netaddr.Invalid {
		t.Fatal("all of S8 already withdrawn at the cut point")
	}
	if nh, ok := forward(p, survivor); !ok || nh != 3 {
		t.Errorf("survivor %v forwarded to %d (%v), want backup 3", survivor, nh, ok)
	}
	return ds
}

// TestLiveBurstReroute drives the full §7 pipeline over a real BGP
// session: the session's Run transfers the peer's table into a fleet
// and provisions it at End-of-RIB, then streams the peer's replay of
// the Fig. 1 burst; the peer's engine infers (5,6) and diverts the
// surviving prefixes to the backup while the burst is still arriving.
//
// The fleet's engine factory keys the primary neighbor on the session's
// peer AS, so pre-failure traffic forwards to the peer with no expected
// AS configured anywhere.
func TestLiveBurstReroute(t *testing.T) {
	lf := newLiveFig1()
	fleet := newFleet(t, lf.cfg)
	local, peer := livePair(t, 0)
	done := runSession(t, local, fleet)

	lf.sendTable(t, peer)
	p := provisionedPeer(t, fleet, local.Key())
	if p.Key() != (PeerKey{AS: 2, BGPID: 2}) {
		t.Fatalf("peer key = %v, want AS2/2", p.Key())
	}
	for _, origin := range []uint32{6, 7, 8} {
		if nh, ok := forward(p, netaddr.PrefixFor(origin, 0)); !ok || nh != 2 {
			t.Fatalf("pre-failure forward of S%d = %d %v, want 2", origin, nh, ok)
		}
	}
	lf.streamBurst(t, peer, p)

	peer.Close()
	<-done
}

// TestLiveBurstRerouteWarm is the warm-restart case of the same
// pipeline: a snapshot taken after the table transfer is restored into
// a fresh fleet, and a fresh session streams the burst with no table
// re-dump — Run sees the restored peer provisioned and goes straight to
// live. The restored fleet must make exactly the decisions the cold one
// made.
func TestLiveBurstRerouteWarm(t *testing.T) {
	lf := newLiveFig1()
	cold := newFleet(t, lf.cfg)
	local, peer := livePair(t, 0)
	runSession(t, local, cold)
	lf.sendTable(t, peer)
	p := provisionedPeer(t, cold, local.Key())
	var snap bytes.Buffer
	if err := cold.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	want := lf.streamBurst(t, peer, p)

	warm, err := RestoreFleet(&snap, lf.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(warm.Close)
	local2, peer2 := livePair(t, 0)
	runSession(t, local2, warm)
	wp, ok := warm.Lookup(local2.Key())
	if !ok || !wp.Provisioned() {
		t.Fatal("restored fleet lacks the provisioned peer")
	}
	routes := 0
	wp.Do(func(e *swiftengine.Engine) { routes = e.RIB().Len() })
	got := lf.streamBurst(t, peer2, wp)

	if routes == 0 {
		t.Fatal("restored peer has an empty RIB")
	}
	if len(got) != len(want) {
		t.Fatalf("warm fleet made %d decisions, cold %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.RulesInstalled != w.RulesInstalled || len(g.Predicted) != len(w.Predicted) ||
			len(g.Result.Links) != len(w.Result.Links) {
			t.Fatalf("decision %d: warm %+v vs cold %+v", i, g.Result, w.Result)
		}
		for j := range w.Result.Links {
			if g.Result.Links[j] != w.Result.Links[j] {
				t.Errorf("decision %d link %d: warm %v vs cold %v", i, j, g.Result.Links[j], w.Result.Links[j])
			}
		}
	}
}

// TestTickClosesQuietBurst pins Run's wall-clock ticks: a burst whose
// withdrawals stop arriving must close once the stream has been quiet
// for a detector window, with no further message to carry the clock.
func TestTickClosesQuietBurst(t *testing.T) {
	ended := make(chan PeerKey, 1)
	fleet := newFleet(t, FleetConfig{
		Engine: func(key PeerKey) swiftengine.Config {
			cfg := swiftengine.Config{LocalAS: 1, PrimaryNeighbor: key.AS}
			cfg.Burst.StartThreshold = 10
			cfg.Burst.Window = 200 * time.Millisecond
			cfg.Encoding.MinPrefixes = 10
			return cfg
		},
		Observer: FleetObserver{
			OnBurstEnd: func(peer PeerKey, _ time.Duration, _ int) {
				select {
				case ended <- peer:
				default:
				}
			},
		},
	})
	local, peer := livePair(t, 200*time.Millisecond)
	runSession(t, local, fleet)

	table := &bgp.Update{Attrs: bgp.Attrs{ASPath: []uint32{2, 5, 6}, HasNextHop: true, NextHop: 2}}
	for i := 0; i < 100; i++ {
		table.NLRI = append(table.NLRI, netaddr.PrefixFor(6, i))
	}
	// No End-of-RIB: the settle quiet period provisions the peer.
	if err := peer.Send(table); err != nil {
		t.Fatal(err)
	}
	provisionedPeer(t, fleet, local.Key())

	events := make([]bgpsim.Event, 50)
	for i := range events {
		events[i] = bgpsim.Event{Kind: bgpsim.KindWithdraw, Prefix: netaddr.PrefixFor(6, i)}
	}
	sendEvents(t, peer, events)
	select {
	case key := <-ended:
		if key != local.Key() {
			t.Errorf("burst ended on %v, want %v", key, local.Key())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("quiet burst never closed: no ticks reached the engine")
	}
}

// TestRunSinkAttribution pins Run's delivery contract against a plain
// sink: every event carries the session's peer key, and a sink without
// a Provisioner surface gets the opening announcements as live events.
func TestRunSinkAttribution(t *testing.T) {
	got := make(chan event.Batch, 1)
	sink := event.SinkFunc(func(b event.Batch) error {
		if b[0].Kind != event.KindTick {
			got <- b
		}
		return nil
	})
	local, peer := livePair(t, 0)
	go local.Run(sink)
	u := &bgp.Update{
		Withdrawn: []netaddr.Prefix{netaddr.PrefixFor(7, 0)},
		Attrs:     bgp.Attrs{ASPath: []uint32{2, 6}, HasNextHop: true, NextHop: 2},
		NLRI:      []netaddr.Prefix{netaddr.PrefixFor(6, 0), netaddr.PrefixFor(6, 1)},
	}
	if err := peer.Send(u); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-got:
		if len(b) != 3 || b[0].Kind != event.KindWithdraw || b[1].Kind != event.KindAnnounce {
			t.Fatalf("batch = %+v", b)
		}
		for _, ev := range b {
			if ev.Peer != (PeerKey{AS: 2, BGPID: 2}) {
				t.Errorf("event attributed to %v", ev.Peer)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no batch delivered")
	}
}
