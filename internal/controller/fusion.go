package controller

import (
	"time"

	"swift/internal/fusion"
)

// Fusion returns the fleet's evidence aggregator (nil when fusion is
// disabled) — the inspection surface for the ops plane and tests.
func (f *Fleet) Fusion() *fusion.Aggregator { return f.fusion }

// kickFusePump nudges the background verdict pump (non-blocking; a
// pending kick coalesces with new ones). No-op under ManualPump.
func (f *Fleet) kickFusePump() {
	if f.fuseKick == nil {
		return
	}
	select {
	case f.fuseKick <- struct{}{}:
	default:
	}
}

// fusePumpLoop is the background verdict publisher: evidence changes
// kick it, it snapshots the aggregator's verdict and fans it out. The
// loop holds no locks while snapshotting and takes exactly one peer
// lock at a time while applying — the lock-order contract that lets
// engines call Propose under their own peer lock without deadlock.
func (f *Fleet) fusePumpLoop() {
	defer f.fuseWG.Done()
	for {
		select {
		case <-f.fuseStop:
			return
		case <-f.fuseKick:
			f.FusePump(0)
		}
	}
}

// FusePump publishes the current fused verdict to every peer: engines
// receive confirmed failed-link sets via ApplyExternal (pre-triggering
// their reroute) or, when the verdict emptied, retire external state
// via ClearExternal. now is the stream clock used for evidence decay; 0
// means the newest evidence time. Verdict application is epoch-gated in
// the engine, so repeated pumps of an unchanged verdict are no-ops.
//
// The background pump calls this on evidence changes; harnesses running
// under ManualPump (the scenario engine) call it at their own
// synchronization barriers for deterministic fan-out.
//
// Pumps are serialized, snapshot through fan-out, so a pump never
// overwrites a newer verdict with the older one it snapshotted (a
// stale "no verdict" clearing a peer after a later pump applied one).
// The pump lock is taken before any peer lock and never under one.
func (f *Fleet) FusePump(now time.Duration) {
	if f.fusion == nil {
		return
	}
	f.pumpMu.Lock()
	defer f.pumpMu.Unlock()
	v, ok := f.fusion.Snapshot(now)
	for _, p := range f.Peers() {
		p.mu.Lock()
		if ok {
			p.engine.ApplyExternal(v)
		} else if err := p.engine.ClearExternal(now); err != nil {
			f.logf("fleet: peer %s: clear external: %v", p.key, err)
		}
		p.mu.Unlock()
	}
}
