// Command bmpgen replays MRT traces as a synthetic BMP router (RFC
// 7854): it dials a collector (swiftd -bmp-listen or any bmp.Station),
// announces one monitored peer per input file, streams each peer's
// TABLE_DUMP_V2 snapshot as the initial table dump (ending with
// End-of-RIB), and then forwards the BGP4MP update records as Route
// Monitoring messages with their original MRT timestamps — so the
// collector's engines see the true burst timeline no matter how fast
// the replay drains.
//
// Each positional argument is one peer:
//
//	updates.mrt            (live stream only; empty table)
//	rib.mrt:updates.mrt    (table dump, then the live stream)
//
// which pairs directly with burstgen's output:
//
//	burstgen -out traces -sessions 3
//	bmpgen -target :11019 traces/as1-from-as2.rib.mrt:traces/as1-from-as2.updates.mrt
//
// Peers stream concurrently over the single BMP connection, exactly
// like a real router multiplexing its sessions. -loop N replays each
// update stream N times (timestamps shifted forward every pass) for
// sustained load generation.
//
// bmpgen exercises the wire side of the event pipeline: the station it
// dials demuxes this stream into peer-attributed event batches for its
// engine fleet. For an in-process replay without the BMP framing, use
// mrt.Source.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/bgp"
	"swift/internal/bmp"
	"swift/internal/mrt"
	"swift/internal/netaddr"
	"swift/internal/telemetry/logging"
)

// logger is the process-wide leveled logger, configured in main.
var logger *logging.Logger

func main() {
	var (
		target   = flag.String("target", "", "collector address to dial (e.g. :11019)")
		sysName  = flag.String("sysname", "bmpgen", "sysName announced in the Initiation message")
		localAS  = flag.Uint("local-as", 65001, "monitored router's AS (the collector side of each session)")
		loops    = flag.Int("loop", 1, "times to replay each update stream")
		gap      = flag.Duration("gap", time.Minute, "quiet gap inserted between replay loops")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()
	lvl, err := logging.ParseLevel(*logLevel)
	if err != nil {
		logging.New(os.Stderr, logging.Info).Fatalf("%v", err)
	}
	logger = logging.New(os.Stderr, lvl)
	if *target == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: bmpgen -target host:port [flags] [rib.mrt:]updates.mrt ...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	conn, err := net.Dial("tcp", *target)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	defer conn.Close()
	w := &router{conn: conn, bw: bufio.NewWriterSize(conn, 1<<16)}

	if err := w.send(&bmp.Initiation{
		SysName:  *sysName,
		SysDescr: "swift bmpgen MRT replayer",
	}); err != nil {
		logger.Fatalf("%v", err)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i, arg := range flag.Args() {
		ribPath, updPath := splitSpec(arg)
		wg.Add(1)
		go func(idx int, ribPath, updPath string) {
			defer wg.Done()
			if err := replayPeer(w, idx, ribPath, updPath, uint32(*localAS), *loops, *gap); err != nil {
				logger.Warnf("%s: %v", updPath, err)
			}
		}(i, ribPath, updPath)
	}
	wg.Wait()
	if err := w.send(&bmp.Termination{Reason: bmp.ReasonAdminClose}); err != nil {
		logger.Warnf("termination: %v", err)
	}
	if err := w.flush(); err != nil {
		logger.Warnf("flush: %v", err)
	}
	elapsed := time.Since(start)
	msgs := w.msgs.Load()
	logger.Infof("replayed %d BMP messages in %v (%.0f msgs/s)",
		msgs, elapsed.Round(time.Millisecond), float64(msgs)/elapsed.Seconds())
}

func splitSpec(arg string) (ribPath, updPath string) {
	if i := strings.LastIndex(arg, ":"); i >= 0 {
		return arg[:i], arg[i+1:]
	}
	return "", arg
}

// router serializes concurrent peers' messages onto the one BMP
// connection.
type router struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	msgs atomic.Uint64
}

func (r *router) send(msgs ...bmp.Message) error {
	var buf []byte
	for _, m := range msgs {
		var err error
		buf, err = m.AppendWire(buf)
		if err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.bw.Write(buf); err != nil {
		return err
	}
	r.msgs.Add(uint64(len(msgs)))
	return nil
}

func (r *router) flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bw.Flush()
}

// update is one replayable BGP4MP record.
type update struct {
	ts   time.Time
	wire []byte // undecoded UPDATE body
}

// replayPeer streams one monitored peer: Peer Up, table dump,
// End-of-RIB, then the timestamped update stream (looped as asked).
func replayPeer(w *router, idx int, ribPath, updPath string, localAS uint32, loops int, gap time.Duration) error {
	peerAS, peerIP, updates, err := loadUpdates(updPath)
	if err != nil {
		return err
	}
	if len(updates) == 0 {
		return fmt.Errorf("no BGP4MP update records")
	}
	bgpID := peerIP
	if bgpID == 0 {
		bgpID = uint32(idx + 1)
	}
	hdr := func(ts time.Time) bmp.PeerHeader {
		h := bmp.PeerHeader{AS: peerAS, BGPID: bgpID}
		h.SetIPv4(peerIP)
		h.SetTimestamp(ts)
		return h
	}
	epoch := updates[0].ts.Add(-time.Hour) // the table predates the stream

	if err := w.send(&bmp.PeerUp{
		Peer:       hdr(epoch),
		LocalPort:  179,
		RemotePort: 179,
		SentOpen:   &bgp.Open{AS: localAS, HoldTime: 90, RouterID: localAS},
		RecvOpen:   &bgp.Open{AS: peerAS, HoldTime: 90, RouterID: bgpID},
	}); err != nil {
		return err
	}

	table := 0
	if ribPath != "" {
		if table, err = replayRIB(w, ribPath, hdr, epoch); err != nil {
			return err
		}
	}
	// End-of-RIB closes the table dump and provisions the engine.
	if err := w.send(&bmp.RouteMonitoring{Peer: hdr(epoch), Update: &bgp.Update{}}); err != nil {
		return err
	}

	span := updates[len(updates)-1].ts.Sub(updates[0].ts) + gap
	sent := 0
	var dec bgp.UpdateDecoder
	var u bgp.Update
	for loop := 0; loop < loops; loop++ {
		shift := time.Duration(loop) * span
		for _, rec := range updates {
			if err := dec.Decode(rec.wire); err != nil {
				return fmt.Errorf("update at %v: %w", rec.ts, err)
			}
			u = bgp.Update{
				Withdrawn: dec.Withdrawn,
				Attrs:     dec.Attrs,
				NLRI:      dec.NLRI,
			}
			if err := w.send(&bmp.RouteMonitoring{Peer: hdr(rec.ts.Add(shift)), Update: &u}); err != nil {
				return err
			}
			sent++
		}
	}
	logger.Infof("peer AS%d/%08x: %d table routes, %d updates sent (%d loops)",
		peerAS, bgpID, table, sent, loops)
	return w.send(&bmp.PeerDown{Peer: hdr(updates[len(updates)-1].ts), Reason: bmp.DownDeconfigured})
}

// loadUpdates reads every BGP4MP UPDATE record of an MRT file into
// memory (bodies stay undecoded; loops re-decode via a shared
// decoder).
func loadUpdates(path string) (peerAS, peerIP uint32, out []update, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	r := mrt.NewReader(f)
	for {
		m, err := r.NextBGP4MP()
		if err == io.EOF {
			break
		}
		if err != nil {
			return peerAS, peerIP, out, err
		}
		if m.Header.Type != bgp.TypeUpdate {
			continue
		}
		if peerAS == 0 {
			peerAS, peerIP = m.PeerAS, m.PeerIP
		}
		out = append(out, update{ts: m.Timestamp, wire: append([]byte(nil), m.Body...)})
	}
	return peerAS, peerIP, out, nil
}

// replayRIB streams a TABLE_DUMP_V2 snapshot as the peer's table dump.
func replayRIB(w *router, path string, hdr func(time.Time) bmp.PeerHeader, epoch time.Time) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	err = mrt.WalkRIBIPv4(f, func(rr *mrt.RIBRecord) error {
		for i := range rr.Entries {
			if err := w.send(&bmp.RouteMonitoring{
				Peer: hdr(epoch),
				Update: &bgp.Update{
					Attrs: rr.Entries[i].Attrs,
					NLRI:  []netaddr.Prefix{rr.Prefix},
				},
			}); err != nil {
				return err
			}
			n++
		}
		return nil
	})
	return n, err
}
