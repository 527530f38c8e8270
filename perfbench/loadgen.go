package main

import (
	"net"
	"sort"
	"sync"
	"time"

	"swift/internal/bmp"
)

// maxChunk bounds one socket write: frames due together (open loop) or
// of one storm (closed loop) go out in writes of at most this many
// bytes.
const maxChunk = 64 << 10

// sendLog is one connection's record of what the generator wrote and
// when. Times are offsets from the run's shared start.
type sendLog struct {
	// chunkFirst[i] is the global frame number (pass*frames + frame) of
	// chunk i's first frame; chunkStart/chunkEnd bracket its write call.
	chunkFirst []int64
	chunkStart []time.Duration
	chunkEnd   []time.Duration
	frames     int64         // frames written
	events     int64         // prefix-events written
	bytes      int64         // live frame bytes written
	storms     []storm       // closed loop: one per storm
	wall       time.Duration // first write to last write return
	inWrite    time.Duration // time blocked in write calls
	asleep     time.Duration // waiting for the next due frame, or for a storm to be applied
	err        error
}

// storm is one closed-loop storm: its first write, the return of its
// last write and the moment every event of it had been applied, all
// offsets from the run's start.
type storm struct {
	start, lastWrite, applied time.Duration
	events                    int64
}

// writeAt returns when the write carrying global frame g started and
// returned.
func (l *sendLog) writeAt(g int64) (start, end time.Duration) {
	i := sort.Search(len(l.chunkFirst), func(i int) bool { return l.chunkFirst[i] > g }) - 1
	if i < 0 {
		return 0, 0
	}
	return l.chunkStart[i], l.chunkEnd[i]
}

// busyShare is the share of the generator's wall time spent neither
// blocked in the socket nor waiting for a due frame: its own work. A
// generator busy most of the time set the pace itself.
func (l *sendLog) busyShare() float64 {
	if l.wall <= 0 {
		return 0
	}
	return float64(l.wall-l.inWrite-l.asleep) / float64(l.wall)
}

// generator drives one BMP connection.
type generator struct {
	conn net.Conn
	s    *connStream
	log  sendLog
}

func dial(addr string, s *connStream) (*generator, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &generator{conn: conn, s: s}, nil
}

// sendSetup writes the Initiation, Peer Ups and table dumps.
func (g *generator) sendSetup() error {
	_, err := g.conn.Write(g.s.setup)
	return err
}

// run writes live frames from t0 until stop on the stream's open-loop
// schedule: each write carries the frames due by then, at most
// maxChunk bytes.
func (g *generator) run(t0 time.Time, stop time.Duration) {
	s, l := g.s, &g.log
	n := len(s.src)
	var first time.Duration = -1
	for pass := int64(0); ; pass++ {
		for i := 0; i < n; {
			now := time.Since(t0)
			if now >= stop {
				l.wall = now - first
				return
			}
			due := time.Duration(pass)*s.passDur + s.due[i]
			if due > now {
				wait := min(due-now, stop-now)
				time.Sleep(wait)
				l.asleep += time.Since(t0) - now
				continue
			}
			j := i + 1
			for j < n && s.ends[j]-s.frameStart(i) <= maxChunk && time.Duration(pass)*s.passDur+s.due[j] <= now {
				j++
			}
			ws, we, err := g.write(t0, i, j, pass)
			if first < 0 {
				first = ws
			}
			if err != nil {
				l.err = err
				l.wall = we - first
				return
			}
			for f := i; f < j; f++ {
				l.events += int64(s.src[f].events())
			}
			i = j
		}
	}
}

// runStorms writes live frames from t0 until stop in storms of at least
// n prefix-events, each written as fast as the socket accepts it. After
// each storm it calls applied with the bytes and events written so far;
// applied returns once the daemon has applied every one of those
// events, and the next storm starts. An error from applied ends the
// run with that error.
func (g *generator) runStorms(t0 time.Time, stop time.Duration, n int64, applied func(bytes, events int64) error) {
	s, l := g.s, &g.log
	frames := len(s.src)
	pass, i := int64(0), 0
	first := time.Duration(-1)
	for {
		now := time.Since(t0)
		if now >= stop {
			l.wall = now - first
			return
		}
		if first < 0 {
			first = now
		}
		st := storm{start: now}
		for st.events < n {
			j := i
			for j < frames && st.events < n && (j == i || s.ends[j]-s.frameStart(i) <= maxChunk) {
				st.events += int64(s.src[j].events())
				j++
			}
			_, we, err := g.write(t0, i, j, pass)
			if err != nil {
				l.err = err
				l.wall = we - first
				return
			}
			st.lastWrite = we
			if i = j; i == frames {
				i, pass = 0, pass+1
			}
		}
		l.events += st.events
		if err := applied(l.bytes, l.events); err != nil {
			l.err = err
			l.wall = time.Since(t0) - first
			return
		}
		st.applied = time.Since(t0)
		l.asleep += st.applied - st.lastWrite
		l.storms = append(l.storms, st)
	}
}

// write stamps frames [i, j) with their pass-k timestamps, writes them
// in one call and logs the write, returning when it started and
// returned.
func (g *generator) write(t0 time.Time, i, j int, pass int64) (start, end time.Duration, err error) {
	s, l := g.s, &g.log
	s.stamp(i, j, pass)
	start = time.Since(t0)
	_, err = g.conn.Write(s.buf[s.frameStart(i):s.ends[j-1]])
	end = time.Since(t0)
	if err != nil {
		return start, end, err
	}
	l.inWrite += end - start
	l.chunkFirst = append(l.chunkFirst, pass*int64(len(s.src))+int64(i))
	l.chunkStart = append(l.chunkStart, start)
	l.chunkEnd = append(l.chunkEnd, end)
	l.frames += int64(j - i)
	l.bytes += int64(s.ends[j-1] - s.frameStart(i))
	return start, end, nil
}

// terminate ends the BMP session and closes the connection.
func (g *generator) terminate() error {
	buf, err := (&bmp.Termination{Reason: bmp.ReasonAdminClose}).AppendWire(nil)
	if err == nil {
		_, err = g.conn.Write(buf)
	}
	if cerr := g.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// runAll drives every generator from the shared start t0 for d, one
// goroutine per connection.
func runAll(gens []*generator, t0 time.Time, d time.Duration) {
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.run(t0, d)
		}()
	}
	wg.Wait()
}

// frameOf splits a global frame number into pass and frame.
func (s *connStream) frameOf(g int64) (pass int64, frame int) {
	n := int64(len(s.src))
	return g / n, int(g % n)
}
