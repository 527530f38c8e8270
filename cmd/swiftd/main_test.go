package main

import (
	"io"
	"net"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/bgpd"
	"swift/internal/controller"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/telemetry/logging"
)

// TestSessionForwardsToPeerWithoutExpectedAS runs an eBGP session
// through the fleet swiftd builds, with no expected peer AS configured
// (-primary-as 0, the default). The engine's primary neighbor comes
// from the session's peer AS, so once the table transfer provisions
// the peer, its prefixes forward to it through the stage-2 primary
// rule.
func TestSessionForwardsToPeerWithoutExpectedAS(t *testing.T) {
	const peerAS = 65010
	fleet := controller.NewFleet(fleetConfig(65001, nil, 0, nil, logging.New(io.Discard, logging.Error)))
	defer fleet.Close()

	c1, c2 := net.Pipe()
	established := make(chan *bgpd.Session, 1)
	go func() {
		s, err := bgpd.Establish(c2, bgpd.Config{LocalAS: peerAS, RouterID: 0x0a000001})
		if err != nil {
			t.Error(err)
		}
		established <- s
	}()
	local, err := bgpd.Establish(c1, bgpd.Config{LocalAS: 65001, RouterID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	peer := <-established
	if peer == nil {
		t.FailNow()
	}
	defer peer.Close()
	go local.Run(fleet)

	var prefixes []netaddr.Prefix
	for i := 0; i < 2000; i++ {
		prefixes = append(prefixes, netaddr.PrefixFor(6, i))
	}
	for i := 0; i < len(prefixes); i += 500 {
		u := &bgp.Update{
			Attrs: bgp.Attrs{ASPath: []uint32{peerAS, 65020, 65030}, HasNextHop: true, NextHop: 0x0a000001},
			NLRI:  prefixes[i : i+500],
		}
		if err := peer.Send(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := peer.Send(&bgp.Update{}); err != nil { // End-of-RIB
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	var p *controller.FleetPeer
	for {
		var ok bool
		if p, ok = fleet.Lookup(local.Key()); ok && p.Provisioned() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("table transfer never provisioned the peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.Do(func(e *swiftengine.Engine) {
		for _, pfx := range []netaddr.Prefix{prefixes[0], prefixes[1999]} {
			if nh, ok := e.FIB().ForwardPrefix(pfx); !ok || nh != peerAS {
				t.Errorf("pre-failure forward of %v = %d %v, want %d", pfx, nh, ok, peerAS)
			}
		}
	})
}
