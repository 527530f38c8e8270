package bgpd

import (
	"fmt"
	"time"

	"swift/internal/event"
)

// Session is an event source: Run streams the peer's UPDATEs into a
// sink exactly as a BMP station streams one monitored peer.
var _ event.Source = (*Session)(nil)

// Key returns the session's identity on the event stream: the peer's
// (AS, BGP identifier) pair, the same key a BMP per-peer header yields.
func (s *Session) Key() event.PeerKey {
	return event.PeerKey{AS: s.peerAS, BGPID: s.peerID}
}

// Run consumes the session's UPDATE stream into sink until the session
// closes, following the BMP station's per-peer rules:
//
//   - If sink is an event.Provisioner and does not yet report the peer
//     provisioned, the opening announcements are the table transfer:
//     their routes are learned through the Provisioner and the peer is
//     provisioned at End-of-RIB (an empty UPDATE, RFC 4724) or after
//     TableSettle of quiet. A peer already provisioned (a warm-restored
//     fleet) skips the transfer and streams live from the first UPDATE.
//   - Live UPDATEs go out as one peer-keyed event.Batch each, stamped
//     by an event.StreamClock over arrival wall-clock, to the sink's
//     event.PeerSink binding when it offers one.
//   - While the stream is quiet, wall-clock ticks advance the peer's
//     clock so a burst detector can close a burst that stopped arriving.
//
// Run returns nil after a clean close (either side's CEASE), the
// session's terminal error otherwise, or the first error the sink
// reports. It must be called at most once, and not alongside Updates.
func (s *Session) Run(sink event.Sink) error {
	key := s.Key()
	dst := sink
	if fast, ok := sink.(event.PeerSink); ok {
		dst = fast.PeerSink(key)
	}
	prov, _ := sink.(event.Provisioner)
	syncing := prov != nil && !prov.Provisioned(key)
	learned := 0
	provision := func() {
		syncing = false
		if err := prov.Provision(key); err != nil {
			s.logf("peer %s provision failed after %d routes: %v", key, learned, err)
			return
		}
		s.logf("peer %s provisioned (%d routes learned)", key, learned)
	}

	settle := s.cfg.tableSettle()
	ticker := time.NewTicker(settle / 4)
	defer ticker.Stop()
	var clock event.StreamClock
	lastMsg := time.Now()
	live := false // a live event has gone out, so ticks have a clock to advance
	for {
		select {
		case u, ok := <-s.updates:
			if !ok {
				return s.Err()
			}
			lastMsg = time.Now()
			at := clock.Offset(lastMsg)
			if syncing {
				if len(u.NLRI) == 0 && len(u.Withdrawn) == 0 {
					provision()
					continue
				}
				// Withdrawals during a table transfer carry no signal.
				for _, p := range u.NLRI {
					prov.Learn(key, p, u.Attrs.ASPath)
					learned++
				}
				continue
			}
			if len(u.NLRI) == 0 && len(u.Withdrawn) == 0 {
				continue
			}
			// Each UPDATE is decoded into fresh memory, so its NLRI
			// events share the path slice without a copy.
			b := make(event.Batch, 0, len(u.Withdrawn)+len(u.NLRI))
			for _, p := range u.Withdrawn {
				b = append(b, event.Withdraw(at, p).WithPeer(key))
			}
			for _, p := range u.NLRI {
				b = append(b, event.Announce(at, p, u.Attrs.ASPath).WithPeer(key))
			}
			if err := dst.Apply(b); err != nil {
				return fmt.Errorf("bgpd: peer %s: sink: %w", key, err)
			}
			live = true
		case now := <-ticker.C:
			quiet := now.Sub(lastMsg)
			if syncing {
				if learned > 0 && quiet >= settle {
					provision()
				}
				continue
			}
			if live && quiet >= settle/4 {
				tick := event.Batch{event.Tick(clock.Offset(now)).WithPeer(key)}
				if err := dst.Apply(tick); err != nil {
					return fmt.Errorf("bgpd: peer %s: sink: %w", key, err)
				}
			}
		}
	}
}
