package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"swift/internal/bgp"
	"swift/internal/bmp"
	"swift/internal/event"
	"swift/internal/netaddr"
)

// streamBase is the router clock at which every generated stream
// starts (the paper's capture month).
var streamBase = time.Date(2016, 11, 1, 0, 0, 0, 0, time.UTC)

// peerSpec is one monitored peer of a synthetic router.
type peerSpec struct {
	key  event.PeerKey
	addr uint32
}

func (p peerSpec) header(ts time.Time) bmp.PeerHeader {
	h := bmp.PeerHeader{AS: p.key.AS, BGPID: p.key.BGPID}
	h.SetIPv4(p.addr)
	h.SetTimestamp(ts)
	return h
}

// frame is one live Route Monitoring message as the generators build
// it.
type frame struct {
	peer      int32 // index into connStream.peers
	ts        int64 // router timestamp in µs since streamBase, pass 0
	withdrawn []netaddr.Prefix
	nlri      []netaddr.Prefix
	path      []uint32
}

func (f *frame) events() int { return len(f.withdrawn) + len(f.nlri) }

// frameSrc is the generator's own record of one encoded frame: what it
// carries, independent of the wire encoding, so output checks replay
// the same events without trusting the codec. Its prefixes and path
// live in the connection's arenas, so the record holds no pointers and
// the collector never scans the inputs while the daemon runs.
type frameSrc struct {
	peer        int32
	nWd, nNLRI  int32
	pathLen     int32
	off, pathAt int32 // offsets into connStream.prefixes and .paths
	ts          int64
}

func (f *frameSrc) events() int { return int(f.nWd + f.nNLRI) }

// connStream is everything one BMP connection sends: a set-up prefix
// (Initiation, Peer Ups, table dumps, End-of-RIBs) and one pass of
// pre-encoded live frames that the generator loops, shifting the router
// timestamps forward by passShift every pass (as bmpgen -loop does).
type connStream struct {
	peers []peerSpec
	setup []byte

	buf      []byte  // live frames of one pass, back to back
	ends     []int32 // ends[i] is the end offset of frame i in buf
	src      []frameSrc
	prefixes []netaddr.Prefix // frameSrc arenas
	paths    []uint32
	// due is each frame's send offset within a pass (open loop only);
	// passDur is the length of one pass of the schedule.
	due     []time.Duration
	passDur time.Duration
	// passShift is the router-clock shift between passes (µs).
	passShift int64
	// events is the prefix-event count of one pass.
	events int64
	// epoch is each peer's stream-clock epoch: the timestamp (µs since
	// streamBase) of its first Route Monitoring message.
	epoch []int64
}

func (c *connStream) frameStart(i int) int32 {
	if i == 0 {
		return 0
	}
	return c.ends[i-1]
}

// encodeSetup writes Initiation, then Peer Up for every peer, then each
// peer's table dump (NLRI packed per shared path, as a router packs an
// initial transfer) closed by End-of-RIB. Tables may be nil (a peer
// the collector already provisioned, e.g. after a warm restart).
func (c *connStream) encodeSetup(sysName string, localAS uint32, tables [][]route) error {
	var err error
	c.setup, err = (&bmp.Initiation{SysName: sysName, SysDescr: "swift perfbench generator"}).AppendWire(c.setup)
	if err != nil {
		return err
	}
	c.epoch = make([]int64, len(c.peers))
	for i := range c.epoch {
		c.epoch[i] = -1
	}
	for _, p := range c.peers {
		c.setup, err = (&bmp.PeerUp{
			Peer:       p.header(streamBase),
			LocalPort:  179,
			RemotePort: 179,
			SentOpen:   &bgp.Open{AS: localAS, HoldTime: 90, RouterID: localAS},
			RecvOpen:   &bgp.Open{AS: p.key.AS, HoldTime: 90, RouterID: p.key.BGPID},
		}).AppendWire(c.setup)
		if err != nil {
			return err
		}
	}
	for i, p := range c.peers {
		if tables == nil || tables[i] == nil {
			continue
		}
		c.epoch[i] = 0
		for _, u := range packAnnouncements(tables[i]) {
			if c.setup, err = (&bmp.RouteMonitoring{Peer: p.header(streamBase), Update: u}).AppendWire(c.setup); err != nil {
				return err
			}
		}
		if c.setup, err = (&bmp.RouteMonitoring{Peer: p.header(streamBase), Update: &bgp.Update{}}).AppendWire(c.setup); err != nil {
			return err
		}
	}
	return nil
}

// maxNLRI bounds the prefixes packed into one UPDATE so it stays under
// the 4096-byte BGP message limit with room for the attributes.
const maxNLRI = 500

// packAnnouncements groups a table into UPDATEs of up to maxNLRI
// prefixes sharing one AS path.
func packAnnouncements(rs []route) []*bgp.Update {
	byPath := map[string]int{}
	var groups [][]route
	for _, r := range rs {
		k := fmt.Sprint(r.path)
		i, ok := byPath[k]
		if !ok {
			i = len(groups)
			byPath[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	var out []*bgp.Update
	for _, g := range groups {
		for len(g) > 0 {
			n := min(len(g), maxNLRI)
			u := &bgp.Update{Attrs: bgp.Attrs{ASPath: g[0].path, HasNextHop: true, NextHop: 0x0a000001}}
			for _, r := range g[:n] {
				u.NLRI = append(u.NLRI, r.prefix)
			}
			out = append(out, u)
			g = g[n:]
		}
	}
	return out
}

// addFrame encodes and appends one live frame.
func (c *connStream) addFrame(f frame) error {
	p := c.peers[f.peer]
	u := &bgp.Update{Withdrawn: f.withdrawn, NLRI: f.nlri}
	if len(f.nlri) > 0 {
		u.Attrs = bgp.Attrs{ASPath: f.path, HasNextHop: true, NextHop: 0x0a000001}
	}
	var err error
	c.buf, err = (&bmp.RouteMonitoring{Peer: p.header(tsTime(f.ts)), Update: u}).AppendWire(c.buf)
	if err != nil {
		return err
	}
	c.ends = append(c.ends, int32(len(c.buf)))
	c.src = append(c.src, frameSrc{
		peer:    f.peer,
		nWd:     int32(len(f.withdrawn)),
		nNLRI:   int32(len(f.nlri)),
		pathLen: int32(len(f.path)),
		off:     int32(len(c.prefixes)),
		pathAt:  int32(len(c.paths)),
		ts:      f.ts,
	})
	c.prefixes = append(append(c.prefixes, f.withdrawn...), f.nlri...)
	c.paths = append(c.paths, f.path...)
	c.events += int64(f.events())
	if c.epoch[f.peer] < 0 {
		c.epoch[f.peer] = f.ts
	}
	return nil
}

// withdrawn, nlri and path return frame i's contents from the arenas.
func (c *connStream) withdrawn(i int) []netaddr.Prefix {
	s := &c.src[i]
	return c.prefixes[s.off : s.off+s.nWd]
}

func (c *connStream) nlri(i int) []netaddr.Prefix {
	s := &c.src[i]
	return c.prefixes[s.off+s.nWd : s.off+s.nWd+s.nNLRI]
}

func (c *connStream) path(i int) []uint32 {
	s := &c.src[i]
	return c.paths[s.pathAt : s.pathAt+s.pathLen : s.pathAt+s.pathLen]
}

func tsTime(us int64) time.Time { return streamBase.Add(time.Duration(us) * time.Microsecond) }

// tsOffset is the router timestamp byte offset inside a Route
// Monitoring frame: common header, then the per-peer header's seconds
// and microseconds fields.
const tsOffset = bmp.HeaderLen + 34

// stamp rewrites frames [i, j) with their pass-k router timestamps. The
// buffer keeps whatever pass wrote it last, so every write stamps, the
// first pass of a run included.
func (c *connStream) stamp(i, j int, pass int64) {
	for f := i; f < j; f++ {
		t := tsTime(c.src[f].ts + pass*c.passShift)
		b := c.buf[c.frameStart(f)+tsOffset:]
		binary.BigEndian.PutUint32(b[0:4], uint32(t.Unix()))
		binary.BigEndian.PutUint32(b[4:8], uint32(t.Nanosecond()/1000))
	}
}

// finish sets the pass shift (span of router time plus a quiet gap
// that lets every open burst close) and, for open-loop streams, the
// schedule: frames are due in order at rate prefix-events per second.
func (c *connStream) finish(gap time.Duration, rate float64) {
	var lo, hi int64 = 1 << 62, 0
	for i := range c.src {
		lo = min(lo, c.src[i].ts)
		hi = max(hi, c.src[i].ts)
	}
	c.passShift = hi - lo + gap.Microseconds()
	if rate <= 0 {
		return
	}
	c.due = make([]time.Duration, len(c.src))
	var cum int64
	for i := range c.src {
		c.due[i] = time.Duration(float64(cum) / rate * float64(time.Second))
		cum += int64(c.src[i].events())
	}
	c.passDur = time.Duration(float64(cum) / rate * float64(time.Second))
}

// batchOf returns the events of frame f in pass k as the station would
// hand them to its sink: withdrawals first, then announcements, all at
// the frame's stream offset.
func (c *connStream) batchOf(dst event.Batch, f int, pass int64) event.Batch {
	s := &c.src[f]
	key := c.peers[s.peer].key
	at := time.Duration(s.ts+pass*c.passShift-c.epoch[s.peer]) * time.Microsecond
	for _, p := range c.withdrawn(f) {
		dst = append(dst, event.Withdraw(at, p).WithPeer(key))
	}
	path := c.path(f)
	for _, p := range c.nlri(f) {
		dst = append(dst, event.Announce(at, p, path).WithPeer(key))
	}
	return dst
}

// frameIndex maps (peer, stream offset) back to the frame that carried
// it. Router timestamps strictly increase per peer, so the offset names
// exactly one sent message.
type frameIndex struct {
	conn  int
	ts    []int64 // pass-0 timestamps of the peer's frames, ascending
	frame []int32
}

type frameRef struct {
	conn  int
	frame int
	pass  int64
}

func buildIndex(conns []*connStream) map[event.PeerKey]*frameIndex {
	idx := map[event.PeerKey]*frameIndex{}
	for ci, c := range conns {
		for f := range c.src {
			key := c.peers[c.src[f].peer].key
			fi := idx[key]
			if fi == nil {
				fi = &frameIndex{conn: ci}
				idx[key] = fi
			}
			fi.ts = append(fi.ts, c.src[f].ts)
			fi.frame = append(fi.frame, int32(f))
		}
	}
	return idx
}

// lookup resolves a peer's stream offset to the frame that carried it.
func lookup(conns []*connStream, idx map[event.PeerKey]*frameIndex, peer event.PeerKey, at time.Duration) (frameRef, bool) {
	fi := idx[peer]
	if fi == nil || len(fi.ts) == 0 {
		return frameRef{}, false
	}
	c := conns[fi.conn]
	pi := c.src[fi.frame[0]].peer
	ts := at.Microseconds() + c.epoch[pi]
	pass := (ts - fi.ts[0]) / c.passShift
	if ts < fi.ts[0] {
		return frameRef{}, false
	}
	base := ts - pass*c.passShift
	i := sort.Search(len(fi.ts), func(i int) bool { return fi.ts[i] >= base })
	if i == len(fi.ts) || fi.ts[i] != base {
		return frameRef{}, false
	}
	return frameRef{conn: fi.conn, frame: int(fi.frame[i]), pass: pass}, true
}
