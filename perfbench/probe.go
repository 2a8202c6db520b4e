package main

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream"
	"p2pstream/internal/clock"
	"p2pstream/internal/transport"
)

// The probe is everything the benchmark measures at boundaries it owns:
// the observer it installs with WithObserver, and — in traced rounds only —
// wrappers around the clock (WithClock) and each host's network
// (WithNetworkFor). Nothing inside the program is changed.

// sampleFrames bounds the written frames kept per kind for codec replay.
const sampleFrames = 32

// events counts observer events. It is installed in every round, traced
// or not: the correctness gate needs the lookup-miss count.
type events struct {
	lookups, lookupFail, hops atomic.Int64
	misses, replicaAnswered   atomic.Int64
	probesServed, sessions    atomic.Int64
	downgrades                atomic.Int64
}

// layers holds the traced round's per-layer counters.
type layers struct {
	timers, timerStops, sleeps atomic.Int64

	dials, dialFail       atomic.Int64
	writes, writeNs       atomic.Int64
	writeBytes, readBytes atomic.Int64
	connsOpen, connsPeak  atomic.Int64
	dirLookups            atomic.Int64

	mu         sync.Mutex
	dialUs     []float64 // wall µs per Dial call
	lookupMs   []float64 // completed lookups (chord walks, directory round trips), virtual ms
	frames     map[transport.Kind]int64
	frameBytes map[transport.Kind]int64
	samples    map[transport.Kind][][]byte
}

func newLayers() *layers {
	return &layers{
		frames:     make(map[transport.Kind]int64),
		frameBytes: make(map[transport.Kind]int64),
		samples:    make(map[transport.Kind][][]byte),
	}
}

// probe ties one round's measurement state together.
type probe struct {
	ev  events
	lay *layers // nil in untraced rounds
	tr  *tracer // nil in untraced rounds
}

// tap is a round's probe plus the clock its spans are stamped on. The
// observer and the wrappers hold the tap; the round's result keeps only
// the probe, so the finished substrate (which the clock's pending timers
// still reference) can be collected.
type tap struct {
	*probe
	clk *p2pstream.VirtualClock
}

// Observe implements p2pstream.Observer.
func (p *tap) Observe(ev p2pstream.ObserverEvent) {
	switch ev.Type {
	case p2pstream.EventLookupDone:
		p.ev.lookups.Add(1)
		p.ev.hops.Add(int64(ev.Hops))
		if ev.Err != nil {
			p.ev.lookupFail.Add(1)
			return
		}
		if p.lay == nil {
			return
		}
		p.lay.mu.Lock()
		p.lay.lookupMs = append(p.lay.lookupMs, float64(ev.Latency)/1e6)
		p.lay.mu.Unlock()
		if p.tr != nil {
			// Rebuilt from the event's latency, which is virtual time: the
			// span ends now and has no wall duration of its own.
			v1, w1 := p.clk.Now(), time.Now()
			p.tr.child("discovery.lookup", peerOf(ev.Component), v1.Add(-ev.Latency), w1, v1, w1)
		}
	case p2pstream.EventLookupMiss:
		p.ev.misses.Add(1)
	case p2pstream.EventReplicaAnswered:
		p.ev.replicaAnswered.Add(1)
	case p2pstream.EventProbeServed:
		p.ev.probesServed.Add(1)
	case p2pstream.EventSessionServed:
		p.ev.sessions.Add(1)
	case p2pstream.EventBitrateDowngrade:
		p.ev.downgrades.Add(1)
	}
}

// peerOf strips the component prefix ("chord/r1" → "r1").
func peerOf(component string) string {
	if i := strings.LastIndexByte(component, '/'); i >= 0 {
		return component[i+1:]
	}
	return component
}

// countingClock counts timers, timer stops and sleeps. The raw virtual
// clock still drives the virtual network, so the network's wake gate is
// untouched.
type countingClock struct {
	p2pstream.Clock
	lay *layers
}

func (c countingClock) Sleep(d time.Duration) {
	c.lay.sleeps.Add(1)
	c.Clock.Sleep(d)
}

func (c countingClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	c.lay.timers.Add(1)
	return countingTimer{c.Clock.AfterFunc(d, fn), c.lay}
}

type countingTimer struct {
	t clock.Timer
	l *layers
}

func (t countingTimer) Stop() bool {
	t.l.timerStops.Add(1)
	return t.t.Stop()
}

// probeNet wraps one host's network.
type probeNet struct {
	inner p2pstream.Network
	host  string
	t     *tap
}

func (n *probeNet) Listen(addr string) (net.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &probeListener{Listener: l, n: n}, nil
}

func (n *probeNet) Dial(addr string) (net.Conn, error) {
	lay := n.t.lay
	w0, v0 := time.Now(), n.t.clk.Now()
	c, err := n.inner.Dial(addr)
	w1 := time.Now()
	lay.dials.Add(1)
	lay.mu.Lock()
	lay.dialUs = append(lay.dialUs, float64(w1.Sub(w0))/1e3)
	lay.mu.Unlock()
	if n.t.tr != nil {
		n.t.tr.child("netx.dial", n.host, v0, w0, n.t.clk.Now(), w1)
	}
	if err != nil {
		lay.dialFail.Add(1)
		return nil, err
	}
	return n.wrap(c), nil
}

func (n *probeNet) wrap(c net.Conn) net.Conn {
	lay := n.t.lay
	open := lay.connsOpen.Add(1)
	for {
		peak := lay.connsPeak.Load()
		if open <= peak || lay.connsPeak.CompareAndSwap(peak, open) {
			break
		}
	}
	return &probeConn{Conn: c, n: n}
}

type probeListener struct {
	net.Listener
	n *probeNet
}

func (l *probeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.wrap(c), nil
}

// probeConn counts bytes, times writes and classifies each written frame
// (transport writes one frame per Write call). A directory lookup written
// on it opens a discovery.lookup span that the next read closes.
type probeConn struct {
	net.Conn
	n      *probeNet
	closed atomic.Bool

	mu           sync.Mutex
	lookupV      time.Time
	lookupW      time.Time
	lookupActive bool
}

func (c *probeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.n.t.lay.readBytes.Add(int64(n))
		c.mu.Lock()
		active, v0, w0 := c.lookupActive, c.lookupV, c.lookupW
		c.lookupActive = false
		c.mu.Unlock()
		if active {
			p := c.n.t
			v1 := p.clk.Now()
			p.lay.dirLookups.Add(1)
			p.lay.mu.Lock()
			p.lay.lookupMs = append(p.lay.lookupMs, float64(v1.Sub(v0))/1e6)
			p.lay.mu.Unlock()
			if p.tr != nil {
				p.tr.child("discovery.lookup", c.n.host, v0, w0, v1, time.Now())
			}
		}
	}
	return n, err
}

func (c *probeConn) Write(b []byte) (int, error) {
	lay := c.n.t.lay
	w0 := time.Now()
	n, err := c.Conn.Write(b)
	lay.writeNs.Add(int64(time.Since(w0)))
	lay.writes.Add(1)
	lay.writeBytes.Add(int64(n))
	if err != nil {
		return n, err
	}
	kind := classify(b)
	lay.mu.Lock()
	lay.frames[kind]++
	lay.frameBytes[kind] += int64(len(b))
	if len(lay.samples[kind]) < sampleFrames {
		lay.samples[kind] = append(lay.samples[kind], append([]byte(nil), b...))
	}
	lay.mu.Unlock()
	if kind == transport.KindLookup {
		c.mu.Lock()
		c.lookupActive, c.lookupV, c.lookupW = true, c.n.t.clk.Now(), w0
		c.mu.Unlock()
	}
	return n, nil
}

func (c *probeConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.n.t.lay.connsOpen.Add(-1)
	}
	return c.Conn.Close()
}

// kindPartial classifies a Write that does not hold exactly one frame.
const kindPartial transport.Kind = "(partial)"

// classify returns the kind of the frame in b through transport's public
// reader, so it keeps working whatever the wire encoding is.
func classify(b []byte) transport.Kind {
	r := bytes.NewReader(b)
	env, err := transport.Read(r)
	if err != nil || r.Len() != 0 {
		return kindPartial
	}
	return env.Kind
}
