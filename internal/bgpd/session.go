// Package bgpd implements a minimal but real BGP-4 speaker on top of
// net.Conn: OPEN handshake with capability negotiation, keepalive and
// hold timers, and full-duplex UPDATE exchange. It is the substrate for
// the §7 case study, where a SWIFT controller maintains live eBGP
// sessions with the peers of the router it protects (the role ExaBGP
// plays in the paper's deployment). A Session is an event.Source: Run
// feeds the peer's table transfer and live stream into an engine fleet
// the same way a BMP station feeds a monitored peer.
//
// The FSM is the RFC 4271 one reduced to the transport this repository
// uses (a connected net.Conn handed to the session, so Connect/Active
// states collapse into the dial performed by the caller).
package bgpd

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/bgp"
)

// State is the session FSM state, exported for introspection and tests.
type State int32

// FSM states (RFC 4271 §8.2.2). Connect/Active are represented by the
// caller owning an un-handshaked conn; the session starts at OpenSent.
const (
	StateIdle State = iota
	StateOpenSent
	StateOpenConfirm
	StateEstablished
	StateClosed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	case StateClosed:
		return "Closed"
	}
	return "unknown"
}

// Config parameterizes a Session.
type Config struct {
	LocalAS  uint32
	RouterID uint32
	// HoldTime is the proposed hold time; the RFC minimum of the two
	// proposals wins. Zero selects the 90 s default. Values below 3 s
	// (other than 0) are rejected by the wire encoder.
	HoldTime time.Duration
	// TableSettle is the quiet period after which Run provisions a peer
	// whose table transfer never sent End-of-RIB (speakers predating
	// RFC 4724 don't). Default 3 s.
	TableSettle time.Duration
	// Logf, when non-nil, receives one line per session event.
	Logf func(format string, args ...any)
}

func (c Config) holdTime() time.Duration {
	if c.HoldTime == 0 {
		return 90 * time.Second
	}
	return c.HoldTime
}

func (c Config) tableSettle() time.Duration {
	if c.TableSettle <= 0 {
		return 3 * time.Second
	}
	return c.TableSettle
}

// Session is an established BGP session. Updates received from the peer
// are delivered on Updates(), or streamed into an event sink by Run;
// Send transmits updates to the peer. Both directions are safe for
// concurrent use.
type Session struct {
	conn    net.Conn
	cfg     Config
	peerAS  uint32
	peerID  uint32
	hold    time.Duration
	state   atomic.Int32
	updates chan *bgp.Update

	writeMu sync.Mutex
	closeMu sync.Mutex
	closed  bool
	errVal  atomic.Value // error
	done    chan struct{}
}

// ErrClosed is returned by Send after the session has terminated.
var ErrClosed = errors.New("bgpd: session closed")

// Establish performs the OPEN/KEEPALIVE handshake on conn and returns an
// established session. It drives both the active and passive side: BGP's
// handshake is symmetric once the TCP connection exists. The conn is
// owned by the session afterwards and closed with it.
func Establish(conn net.Conn, cfg Config) (*Session, error) {
	s := &Session{
		conn:    conn,
		cfg:     cfg,
		hold:    cfg.holdTime(),
		updates: make(chan *bgp.Update, 1024),
		done:    make(chan struct{}),
	}
	s.state.Store(int32(StateOpenSent))

	deadline := time.Now().Add(30 * time.Second)
	_ = conn.SetDeadline(deadline)

	open := &bgp.Open{
		AS:       cfg.LocalAS,
		HoldTime: uint16(s.hold / time.Second),
		RouterID: cfg.RouterID,
	}
	// The handshake is symmetric: both ends send OPEN before reading.
	// Writes must therefore proceed concurrently with the read, or two
	// speakers over an unbuffered transport (net.Pipe in tests) deadlock.
	openErr := make(chan error, 1)
	go func() { openErr <- bgp.WriteMessage(conn, open) }()

	h, body, err := bgp.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgpd: reading OPEN: %w", err)
	}
	if h.Type != bgp.TypeOpen {
		conn.Close()
		return nil, fmt.Errorf("bgpd: expected OPEN, got type %d", h.Type)
	}
	var peerOpen bgp.Open
	if err := peerOpen.Decode(body); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgpd: decoding OPEN: %w", err)
	}
	if peerOpen.Version != bgp.Version {
		s.notifyAndClose(bgp.NotifOpenError, 1)
		return nil, fmt.Errorf("bgpd: unsupported BGP version %d", peerOpen.Version)
	}
	s.peerAS = peerOpen.AS
	s.peerID = peerOpen.RouterID
	if peerHold := time.Duration(peerOpen.HoldTime) * time.Second; peerHold != 0 && peerHold < s.hold {
		s.hold = peerHold
	}
	s.state.Store(int32(StateOpenConfirm))
	if err := <-openErr; err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgpd: sending OPEN: %w", err)
	}

	kaErr := make(chan error, 1)
	go func() { kaErr <- bgp.WriteMessage(conn, bgp.Keepalive{}) }()
	h, _, err = bgp.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgpd: awaiting KEEPALIVE: %w", err)
	}
	if h.Type != bgp.TypeKeepalive {
		s.notifyAndClose(bgp.NotifFSMError, 0)
		return nil, fmt.Errorf("bgpd: expected KEEPALIVE, got type %d", h.Type)
	}
	if err := <-kaErr; err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgpd: sending KEEPALIVE: %w", err)
	}

	_ = conn.SetDeadline(time.Time{})
	s.state.Store(int32(StateEstablished))
	s.logf("session established: peer AS%d id %08x hold %v", s.peerAS, s.peerID, s.hold)

	go s.readLoop()
	go s.keepaliveLoop()
	return s, nil
}

// State returns the current FSM state.
func (s *Session) State() State { return State(s.state.Load()) }

// PeerAS returns the negotiated peer AS number.
func (s *Session) PeerAS() uint32 { return s.peerAS }

// PeerID returns the peer's BGP identifier.
func (s *Session) PeerID() uint32 { return s.peerID }

// HoldTime returns the negotiated hold time.
func (s *Session) HoldTime() time.Duration { return s.hold }

// Updates returns the channel of UPDATE messages received from the peer.
// The channel is closed when the session terminates.
func (s *Session) Updates() <-chan *bgp.Update { return s.updates }

// Done is closed when the session has fully terminated.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the terminal error, or nil while the session is healthy or
// after a clean Close.
func (s *Session) Err() error {
	if v := s.errVal.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Send transmits UPDATE messages to the peer in order.
func (s *Session) Send(updates ...*bgp.Update) error {
	if s.State() != StateEstablished {
		return ErrClosed
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	var buf []byte
	for _, u := range updates {
		var err error
		buf, err = u.AppendWire(buf)
		if err != nil {
			return err
		}
	}
	if _, err := s.conn.Write(buf); err != nil {
		s.fail(fmt.Errorf("bgpd: write: %w", err))
		return err
	}
	return nil
}

// Close terminates the session cleanly with a CEASE notification.
func (s *Session) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	s.closeMu.Unlock()

	s.state.Store(int32(StateClosed))
	s.writeMu.Lock()
	n := &bgp.Notification{Code: bgp.NotifCease}
	if buf, err := n.AppendWire(nil); err == nil {
		_ = s.conn.SetWriteDeadline(time.Now().Add(time.Second))
		_, _ = s.conn.Write(buf)
	}
	s.writeMu.Unlock()
	err := s.conn.Close()
	return err
}

func (s *Session) notifyAndClose(code, subcode uint8) {
	n := &bgp.Notification{Code: code, Subcode: subcode}
	if buf, err := n.AppendWire(nil); err == nil {
		_, _ = s.conn.Write(buf)
	}
	s.conn.Close()
	s.state.Store(int32(StateClosed))
}

func (s *Session) fail(err error) {
	s.closeMu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.closeMu.Unlock()
	if !alreadyClosed {
		s.errVal.CompareAndSwap(nil, err)
		s.logf("session failed: %v", err)
		s.conn.Close()
	}
	s.state.Store(int32(StateClosed))
}

func (s *Session) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf("bgpd: "+format, args...)
	}
}

// readLoop receives messages until the session dies, enforcing the hold
// timer by bounding each read.
func (s *Session) readLoop() {
	defer close(s.updates)
	defer close(s.done)
	for {
		if s.hold > 0 {
			_ = s.conn.SetReadDeadline(time.Now().Add(s.hold))
		}
		h, body, err := bgp.ReadMessage(s.conn)
		if err != nil {
			if s.State() != StateClosed {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					s.writeMu.Lock()
					n := &bgp.Notification{Code: bgp.NotifHoldTimer}
					if buf, e := n.AppendWire(nil); e == nil {
						_, _ = s.conn.Write(buf)
					}
					s.writeMu.Unlock()
					s.fail(errors.New("bgpd: hold timer expired"))
				} else {
					s.fail(err)
				}
			}
			return
		}
		switch h.Type {
		case bgp.TypeKeepalive:
			// Hold timer already reset by the successful read.
		case bgp.TypeUpdate:
			u := new(bgp.Update)
			if err := u.Decode(body); err != nil {
				s.writeMu.Lock()
				n := &bgp.Notification{Code: bgp.NotifUpdateError}
				if buf, e := n.AppendWire(nil); e == nil {
					_, _ = s.conn.Write(buf)
				}
				s.writeMu.Unlock()
				s.fail(fmt.Errorf("bgpd: malformed update: %w", err))
				return
			}
			select {
			case s.updates <- u:
			default:
				// Receiver is not draining; block rather than drop, BGP is
				// loss-intolerant. TCP backpressure is the real-world analog.
				s.updates <- u
			}
		case bgp.TypeNotification:
			var n bgp.Notification
			if err := n.Decode(body); err == nil && n.Code == bgp.NotifCease {
				s.closeMu.Lock()
				s.closed = true
				s.closeMu.Unlock()
				s.state.Store(int32(StateClosed))
				s.conn.Close()
				return
			}
			_ = n.Decode(body)
			s.fail(&n)
			return
		default:
			s.fail(fmt.Errorf("bgpd: unexpected message type %d in Established", h.Type))
			return
		}
	}
}

// keepaliveLoop sends KEEPALIVEs at one third of the hold time (RFC
// 4271's recommendation).
func (s *Session) keepaliveLoop() {
	if s.hold == 0 {
		return
	}
	t := time.NewTicker(s.hold / 3)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			if s.State() != StateEstablished {
				return
			}
			s.writeMu.Lock()
			err := bgp.WriteMessage(s.conn, bgp.Keepalive{})
			s.writeMu.Unlock()
			if err != nil {
				s.fail(fmt.Errorf("bgpd: keepalive: %w", err))
				return
			}
		}
	}
}
