// Live-session example: the §7 deployment over a real TCP BGP session
// on localhost. A "peer" speaker (playing AS 2's router) establishes a
// session with the SWIFT controller, transfers its table, then replays
// the Fig. 1 burst on the wire as packed UPDATE messages. The session's
// Run streams it all into a one-peer engine fleet — exactly what
// `swiftd -listen` does: the table provisions the peer's engine at
// End-of-RIB, and the burst drives it live. The engine detects the
// burst, infers the failed link and programs the data plane; the
// fleet's Observer hook pushes each decision to the example the moment
// it happens — no polling.
//
// Run: go run ./examples/live-session
package main

import (
	"fmt"
	"net"
	"time"

	"swift"
	"swift/internal/bgp"
	"swift/internal/bgpd"
	"swift/internal/bgpsim"
	"swift/internal/netaddr"
	"swift/internal/topology"
)

func main() {
	const scale = 2000
	netw := bgpsim.Fig1Network(scale)
	sols := netw.Solve(netw.Graph)

	// SWIFT controller for AS 1: a fleet whose engines take the
	// session's peer AS as primary neighbor and preload the alternates
	// (in a full deployment these come from the other peers' sessions).
	// Provisions and decisions are pushed by the Observer hooks instead
	// of polled.
	provisioned := make(chan swift.ProvisionInfo, 1)
	decisions := make(chan swift.Decision, 1)
	fleet := swift.NewFleet(swift.FleetConfig{
		Engine: func(key swift.PeerKey) swift.Config {
			cfg := swift.Config{LocalAS: 1, PrimaryNeighbor: key.AS}
			cfg.Inference = swift.DefaultInference()
			cfg.Inference.TriggerEvery = 500
			cfg.Inference.UseHistory = false
			cfg.Encoding = swift.DefaultEncoding()
			cfg.Encoding.MinPrefixes = 200
			cfg.Burst = swift.BurstConfig{StartThreshold: 200, StopThreshold: 9}
			return cfg
		},
		OnPeer: func(p *swift.FleetPeer) {
			for origin, n := range netw.Origins {
				for _, nb := range []uint32{3, 4} {
					r, ok := sols[origin].ExportTo(netw.Graph, netw.Policy, nb, 1)
					if !ok {
						continue
					}
					for i := 0; i < n; i++ {
						p.LearnAlternate(nb, netaddr.PrefixFor(origin, i), r.Path)
					}
				}
			}
		},
		// The hooks run on the fleet's worker: hand off without blocking.
		Observer: swift.FleetObserver{
			OnProvision: func(_ swift.PeerKey, info swift.ProvisionInfo) {
				select {
				case provisioned <- info:
				default:
				}
			},
			OnDecision: func(_ swift.PeerKey, d swift.Decision) {
				select {
				case decisions <- d:
				default:
				}
			},
		},
	})
	defer fleet.Close()

	// Real TCP session on localhost.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer l.Close()
	peerReady := make(chan *bgpd.Session, 1)
	go func() {
		s, err := bgpd.Dial(l.Addr().String(), bgpd.Config{LocalAS: 2, RouterID: 2})
		if err != nil {
			panic(err)
		}
		peerReady <- s
	}()
	local, err := bgpd.Accept(l, bgpd.Config{LocalAS: 1, RouterID: 1})
	if err != nil {
		panic(err)
	}
	peer := <-peerReady
	fmt.Printf("BGP session established over %s (peer %s)\n", l.Addr(), local.Key())
	ran := make(chan error, 1)
	go func() { ran <- local.Run(fleet) }()

	// AS 2's router transfers its table, closed by End-of-RIB.
	for origin, n := range netw.Origins {
		r, ok := sols[origin].ExportTo(netw.Graph, netw.Policy, 2, 1)
		if !ok {
			continue
		}
		for i := 0; i < n; i += 500 {
			u := &bgp.Update{Attrs: bgp.Attrs{ASPath: r.Path, HasNextHop: true, NextHop: 2}}
			for j := i; j < min(i+500, n); j++ {
				u.NLRI = append(u.NLRI, netaddr.PrefixFor(origin, j))
			}
			if err := peer.Send(u); err != nil {
				panic(err)
			}
		}
	}
	if err := peer.Send(&bgp.Update{}); err != nil {
		panic(err)
	}
	select {
	case info := <-provisioned:
		fmt.Printf("controller provisioned: %d prefixes tagged, %d next-hops\n\n",
			info.TaggedPrefixes, info.NextHops)
	case <-time.After(10 * time.Second):
		panic("table transfer never provisioned")
	}

	// AS 2's router replays the (5,6) failure burst on the wire.
	b, err := netw.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.TestbedTiming(9))
	if err != nil {
		panic(err)
	}
	fmt.Printf("peer replays the burst: %d withdrawals, %d updates\n", b.Size, len(b.Events)-b.Size)
	var batch []netaddr.Prefix
	flush := func() {
		for _, m := range bgp.PackWithdrawals(batch) {
			if err := peer.Send(m); err != nil {
				panic(err)
			}
		}
		batch = batch[:0]
	}
	for _, ev := range b.Events {
		if ev.Kind == bgpsim.KindWithdraw {
			batch = append(batch, ev.Prefix)
			if len(batch) >= 500 {
				flush()
			}
			continue
		}
		flush()
		if err := peer.Send(&bgp.Update{
			Attrs: bgp.Attrs{ASPath: ev.Path, HasNextHop: true, NextHop: 2},
			NLRI:  []netaddr.Prefix{ev.Prefix},
		}); err != nil {
			panic(err)
		}
	}
	flush()

	// The observer pushes the first inference as soon as the fleet
	// applies it off the socket.
	fmt.Println()
	select {
	case d := <-decisions:
		fmt.Printf("live inference: links %v after %d withdrawals, %d rules installed\n",
			d.Result.Links, d.Result.Received, d.RulesInstalled)
	case <-time.After(10 * time.Second):
		fmt.Println("no inference within 10s")
	}

	// The peer's CEASE ends Run; Close then drains the fleet.
	peer.Close()
	if err := <-ran; err != nil {
		panic(err)
	}
	fleet.Close()
	fmt.Println("final:", fleet.Status())
}
