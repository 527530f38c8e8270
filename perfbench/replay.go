package main

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"swift/internal/event"
	"swift/internal/rib"
	swiftengine "swift/internal/swift"
)

// replayBatch is the direct replays' batch size, the station's default
// flush size.
const replayBatch = 512

// forEachSent walks every frame generator g wrote on connection c, in
// send order, handing each peer's events to apply in batches of about
// replayBatch; with only ≥ 0, just that peer's. Peers are independent,
// so callers may walk them concurrently without changing any engine's
// input.
func forEachSent(c *connStream, g *generator, only int32, apply func(key event.PeerKey, b event.Batch)) {
	pending := make([]event.Batch, len(c.peers))
	for gf := int64(0); gf < g.log.frames; gf++ {
		pass, f := c.frameOf(gf)
		pi := c.src[f].peer
		if only >= 0 && pi != only {
			continue
		}
		pending[pi] = c.batchOf(pending[pi], f, pass)
		if len(pending[pi]) >= replayBatch {
			apply(c.peers[pi].key, pending[pi])
			pending[pi] = pending[pi][:0]
		}
	}
	for pi, b := range pending {
		if len(b) > 0 {
			apply(c.peers[pi].key, b)
		}
	}
}

// parallel runs fn for every index below n (a connection or a peer) on
// its own goroutine and returns the errors joined.
func parallel(n int, fn func(ci int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = fn(ci)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// replayStats is the outcome of applying the sent frames straight to
// engines.
type replayStats struct {
	engines     map[event.PeerKey]*swiftengine.Engine
	decisions   map[event.PeerKey][]swiftengine.Decision
	pass0Frames []int // per connection: pass-0 frames sent
	applyTime   time.Duration
	events      int64
}

// replayDirect builds one engine per peer as the fleet builds it
// (alternates, then the table dump, then Provision; one shared pool)
// and applies every sent frame through Engine.Apply, one goroutine per
// connection. applyTime sums the goroutines' time inside Apply.
func replayDirect(localAS uint32, alt alternates, conns []*connStream, tables [][][]route, gens []*generator) (*replayStats, error) {
	rs := &replayStats{
		engines:   map[event.PeerKey]*swiftengine.Engine{},
		decisions: map[event.PeerKey][]swiftengine.Decision{},
	}
	type peerRef struct{ ci, pi int }
	var peers []peerRef
	for ci, c := range conns {
		for pi := range c.peers {
			peers = append(peers, peerRef{ci, pi})
		}
		rs.pass0Frames = append(rs.pass0Frames, int(min(gens[ci].log.frames, int64(len(c.src)))))
	}
	pool := rib.NewPool()
	engines := make([]*swiftengine.Engine, len(peers))
	took := make([]time.Duration, len(peers))
	events := make([]int64, len(peers))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	err := parallel(len(peers), func(i int) error {
		sem <- struct{}{}
		defer func() { <-sem }()
		ci, pi := peers[i].ci, peers[i].pi
		cfg := engineConfig(localAS, conns[ci].peers[pi].key)
		cfg.Pool = pool
		e := swiftengine.New(cfg)
		for _, r := range alt.routes {
			e.LearnAlternate(alt.as, r.prefix, r.path)
		}
		for _, r := range tables[ci][pi] {
			e.LearnPrimary(r.prefix, r.path)
		}
		if err := e.Provision(); err != nil {
			return err
		}
		engines[i] = e
		forEachSent(conns[ci], gens[ci], int32(pi), func(_ event.PeerKey, b event.Batch) {
			start := time.Now()
			e.Apply(b)
			took[i] += time.Since(start)
			events[i] += int64(len(b))
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range peers {
		key := conns[p.ci].peers[p.pi].key
		rs.engines[key] = engines[i]
		rs.decisions[key] = engines[i].Decisions()
		rs.applyTime += took[i]
		rs.events += events[i]
	}
	return rs, nil
}
