package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"p2pstream"
)

// overlayWorkload is one live-overlay workload: a seeded overlay on the
// virtual substrate and a generated population of requesters driven
// through Node.Request by the benchmark's own retry loop.
type overlayWorkload struct {
	seeds   int
	pop     population
	warmup  time.Duration // virtual time between seed boot and time zero
	file    p2pstream.MediaFile
	link    p2pstream.LinkConfig
	m       int
	backoff p2pstream.BackoffConfig
	jitter  float64 // backoff scale is uniform in [1-jitter, 1+jitter)
	// maxAttempts is each requester's attempt budget; retry is the wait
	// after a failure that is not a rejection.
	maxAttempts int
	retry       time.Duration
	coalesce    time.Duration
	adapt       bool
	chord       bool
	stabilize   time.Duration
	// crashAt, when positive, takes seed 1's host down at that virtual
	// instant after time zero.
	crashAt time.Duration
	// delayGate runs the fidelity round, which fails the run when a
	// session's measured delay exceeds n·δt by more than the allowance.
	delayGate bool
}

// dirHost is the directory server's virtual host.
const dirHost = "dir"

// reqResult is one requester's outcome.
type reqResult struct {
	arrival
	lag       time.Duration // how late the first request started
	admitV    time.Duration // session start, virtual time after time zero
	attempts  int
	rejected  int
	transient int // failed attempts that were not rejections
	report    *p2pstream.SessionReport
	node      *p2pstream.Node
	err       error

	// Traced rounds only.
	reqWallMs, reqVirtMs []float64
	backoffMs            []float64
}

// overlayRound is the raw outcome of one overlay round.
type overlayRound struct {
	index           int           // the round's position in its run
	setup, measured time.Duration // wall
	virtual         time.Duration // virtual time from time zero to the last requester's end
	res             []reqResult
	clockElapsed    time.Duration // virtual time since the clock started
	usage           usage
	heapMB          float64 // peak live heap of the measured phase
	probe           *probe
	dirLookups      int64 // directory server counters
	dirRegisters    int64
	queueDrops      int64
	members         int      // ring members at the end: seeds plus served requesters
	failures        []string // correctness-gate failures
	late            []string // sessions over the delay bound
	maxDelayExcess  time.Duration
}

// run executes one round on a fresh substrate with inputs drawn from seed.
func (w *overlayWorkload) run(seed int64, traced bool) (*overlayRound, error) {
	ctx := context.Background()
	wall0 := time.Now()
	out := &overlayRound{}

	clk := p2pstream.NewVirtualClock()
	if w.coalesce > 0 {
		clk.SetCoalesce(w.coalesce)
	}
	stopClock := clk.AutoRun()
	defer stopClock()
	vnet := p2pstream.NewVirtualNetwork(clk, seed)
	vnet.SetDefaultLink(w.link)

	pr := &probe{}
	tp := &tap{probe: pr, clk: clk}
	var nodeClock p2pstream.Clock = clk
	netFor := func(id string) p2pstream.Network { return vnet.Host(id) }
	if traced {
		pr.lay = newLayers()
		nodeClock = countingClock{Clock: clk, lay: pr.lay}
		netFor = func(id string) p2pstream.Network { return &probeNet{inner: vnet.Host(id), host: id, t: tp} }
	}
	out.probe = pr

	opts := []p2pstream.OverlayOption{
		p2pstream.WithClock(nodeClock),
		p2pstream.WithNetworkFor(netFor),
		p2pstream.WithObserver(tp),
		p2pstream.WithProbeFanout(w.m),
		p2pstream.WithBackoff(w.backoff),
		p2pstream.WithSeed(seed),
	}
	if !w.adapt {
		opts = append(opts, p2pstream.WithoutAdaptation())
	}
	var srv *p2pstream.DirectoryServer
	if w.chord {
		opts = append(opts,
			p2pstream.WithChord(p2pstream.ChordDiscoveryConfig{Stabilize: w.stabilize}),
			p2pstream.WithChordReplication(3),
			p2pstream.WithChordVirtualNodes(4))
	} else {
		srv = p2pstream.NewDirectoryServer(seed)
		l, err := netFor(dirHost).Listen(":0")
		if err != nil {
			return nil, fmt.Errorf("directory listen: %w", err)
		}
		go srv.Serve(l)
		defer srv.Close()
		opts = append(opts, p2pstream.WithDirectory(l.Addr().String()))
	}
	file := w.file
	ov, err := p2pstream.NewOverlay(&file, opts...)
	if err != nil {
		return nil, err
	}
	hosts := []string{dirHost}
	defer func() {
		// Tear down as a crash: with every host down, closing peers
		// neither unregisters nor says goodbye, which with thousands of
		// peers would take longer than the round.
		for _, h := range hosts {
			vnet.SetDown(h)
		}
		ov.Close()
	}()

	seedIDs := make([]string, w.seeds)
	for i := range seedIDs {
		seedIDs[i] = fmt.Sprintf("s%d", i)
	}
	hosts = append(hosts, seedIDs...)
	seedNodes, err := bootSeeds(ctx, ov, seedIDs, !w.chord)
	if err != nil {
		return nil, err
	}
	if w.warmup > 0 {
		clk.Sleep(w.warmup)
	}

	arrivals := generate(seed, w.pop)
	for _, a := range arrivals {
		hosts = append(hosts, a.ID)
	}
	vZero, wZero := clk.Now(), time.Now()
	out.setup = wZero.Sub(wall0)
	if traced {
		pr.tr = newTracer(vZero, wZero)
	}
	if w.crashAt > 0 && w.seeds > 1 {
		clk.AfterFunc(w.crashAt, func() { vnet.SetDown(seedIDs[1]) })
	}
	cpu0, mem0 := sampleUsage()
	heap := watchHeap()

	out.res = make([]reqResult, len(arrivals))
	var wg sync.WaitGroup
	for i := range arrivals {
		out.res[i].arrival = arrivals[i]
		wg.Add(1)
		go func(r *reqResult) {
			defer wg.Done()
			w.request(ctx, ov, clk, pr.tr, vZero, r)
		}(&out.res[i])
	}
	wg.Wait()
	out.measured = time.Since(wZero)
	out.virtual = clk.Since(vZero)
	out.usage = usageSince(cpu0, mem0)
	out.heapMB = heap.end()

	out.clockElapsed = clk.Elapsed()
	out.queueDrops = vnet.QueueDrops()
	if srv != nil {
		st := srv.Stats()
		out.dirLookups, out.dirRegisters = st.Lookups, st.Registers
	}
	out.members = w.seeds
	for _, r := range out.res {
		if r.report != nil {
			out.members++
		}
	}
	ref, err := referenceContent(seedNodes[0], &file)
	if err != nil {
		return nil, err
	}
	out.failures, out.late, out.maxDelayExcess = w.verify(out.res, ref)
	for i := range out.res {
		out.res[i].node = nil // verified; let the stores go with the round
	}
	if w.chord {
		if n := pr.ev.misses.Load(); n > 0 {
			out.failures = append(out.failures, fmt.Sprintf("%d lookup misses on the replicated ring", n))
		}
	}
	return out, nil
}

// bootSeeds starts the seed population. Against a directory, seeds boot
// concurrently; chord seeds boot one at a time (each joins the ring the
// earlier ones formed).
func bootSeeds(ctx context.Context, ov *p2pstream.Overlay, ids []string, concurrent bool) ([]*p2pstream.Node, error) {
	nodes := make([]*p2pstream.Node, len(ids))
	errs := make([]error, len(ids))
	workers := 1
	if concurrent {
		workers = 32
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				nodes[i], errs[i] = ov.Seed(ctx, p2pstream.OverlayPeer{ID: ids[i], Class: 1})
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("seed boot: %w", err)
	}
	return nodes, nil
}

// request drives one requester: wait for its due instant, create the
// peer, then attempt until admitted or out of budget. Rejections back off
// on the configured schedule scaled by the requester's generated jitter;
// the next attempt starts when the previous one returned plus its wait.
func (w *overlayWorkload) request(ctx context.Context, ov *p2pstream.Overlay, clk *p2pstream.VirtualClock, tr *tracer, vZero time.Time, r *reqResult) {
	due := vZero.Add(r.Offset)
	clk.Sleep(due.Sub(clk.Now()))
	r.lag = clk.Since(due)
	var root int64
	if tr != nil {
		root = tr.reserve()
	}
	wStart := time.Now()
	end := func() {
		if tr == nil {
			return
		}
		v1 := clk.Now()
		if r.report != nil {
			v1 = vZero.Add(r.admitV)
		}
		tr.finish(root, "requester", r.ID, 0, due, wStart, v1, time.Now())
	}
	defer end()

	n, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: r.ID, Class: r.Class, Seed: r.Seed})
	if err != nil {
		r.err = err
		return
	}
	for {
		v0, w0 := clk.Now(), time.Now()
		var id int64
		if tr != nil {
			id = tr.reserve()
			tr.setOpen(r.ID, id)
		}
		rep, err := n.Request(ctx, "")
		v1, w1 := clk.Now(), time.Now()
		r.attempts++
		if tr != nil {
			tr.setOpen(r.ID, 0)
			tr.finish(id, "node.request", r.ID, root, v0, w0, v1, w1)
			r.reqWallMs = append(r.reqWallMs, float64(w1.Sub(w0))/1e6)
			r.reqVirtMs = append(r.reqVirtMs, float64(v1.Sub(v0))/1e6)
		}
		if err == nil || rep != nil {
			// A session whose only failure was the post-session
			// registration still delivered the file.
			r.report, r.node = rep, n
			r.admitV = v1.Add(-rep.Duration).Sub(vZero)
			return
		}
		wait := w.retry
		if errors.Is(err, p2pstream.ErrRejected) || errors.Is(err, p2pstream.ErrNoSuppliers) {
			r.rejected++
			d, berr := w.backoff.After(r.rejected)
			if berr != nil {
				r.err = berr
				return
			}
			wait = time.Duration(float64(d) * (1 + w.jitter*(2*r.uniform()-1)))
		} else {
			r.transient++
		}
		if r.attempts >= w.maxAttempts {
			r.err = fmt.Errorf("%s: gave up after %d attempts: %w", r.ID, r.attempts, err)
			return
		}
		b0, bw0 := clk.Now(), time.Now()
		clk.Sleep(wait)
		if tr != nil {
			b1 := clk.Now()
			tr.add("backoff", r.ID, root, b0, bw0, b1, time.Now())
			r.backoffMs = append(r.backoffMs, float64(b1.Sub(b0))/1e6)
		}
	}
}

// referenceContent reads the full-quality content of every segment from a
// seed's store: the byte pattern every delivered rendition must derive
// from.
func referenceContent(seed *p2pstream.Node, f *p2pstream.MediaFile) ([][]byte, error) {
	st := seed.StoreOf(f.Name)
	if st == nil || !st.Complete() {
		return nil, errors.New("seed store incomplete")
	}
	ref := make([][]byte, f.Segments)
	for i := range ref {
		seg, _ := st.Get(segmentID(i))
		ref[i] = seg.Data
	}
	return ref, nil
}

// rendition is the content of a segment at quality q under the default
// codec: every 2^q-th byte of the full-quality content, cut at the
// dyadic size.
func rendition(full []byte, q int) []byte {
	if q <= 0 {
		return full
	}
	size := max(len(full)>>q, 1)
	out := make([]byte, 0, size)
	for i := 0; i < len(full) && len(out) < size; i += 1 << q {
		out = append(out, full[i])
	}
	return out
}

// verify checks one overlay round's sessions: every served requester's
// store must be complete and byte-exact, and every session's schedule
// must give Theorem 1's n·δt; those are failures. A session whose
// measured buffering delay exceeds n·δt by more than the link-latency
// allowance is late: the fidelity round gates on it, measured rounds
// report it. verify also returns the largest excess of a measured delay
// over n·δt.
func (w *overlayWorkload) verify(res []reqResult, ref [][]byte) (fails, late []string, maxExcess time.Duration) {
	allow := w.delayAllowance()
	for _, r := range res {
		if r.report == nil {
			continue
		}
		rep := r.report
		if want := time.Duration(len(rep.Suppliers)) * w.file.SegmentTime; rep.TheoreticalDelay != want {
			fails = append(fails, fmt.Sprintf("%s: theoretical delay %v, want %d·δt = %v", r.ID, rep.TheoreticalDelay, len(rep.Suppliers), want))
		}
		excess := rep.MeasuredDelay - rep.TheoreticalDelay
		maxExcess = max(maxExcess, excess)
		if excess > allow {
			late = append(late, fmt.Sprintf("%s: measured delay %v exceeds n·δt %v by more than %v", r.ID, rep.MeasuredDelay, rep.TheoreticalDelay, allow))
		}
		st := r.node.StoreOf(w.file.Name)
		if st == nil || !st.Complete() {
			fails = append(fails, fmt.Sprintf("%s: store incomplete", r.ID))
			continue
		}
		for i := range ref {
			seg, _ := st.Get(segmentID(i))
			if !bytes.Equal(seg.Data, rendition(ref[i], int(seg.Quality))) {
				fails = append(fails, fmt.Sprintf("%s: segment %d (quality %d) is not byte-exact", r.ID, i, seg.Quality))
				break
			}
		}
	}
	return fails, late, maxExcess
}

// delayAllowance is how far a measured buffering delay may exceed n·δt:
// one link latency, the time the data takes to cross the link.
func (w *overlayWorkload) delayAllowance() time.Duration {
	return w.link.Latency
}

// fidelityPeers and fidelityRequesters size the fidelity round.
const (
	fidelitySeeds      = 16
	fidelityRequesters = 8
)

// fidelity returns the workload's shape scaled down to a fidelity round:
// few peers on the virtual clock's default event granularity instead of
// the coalescing window, where Theorem 1's delay is the program's claim.
func (w *overlayWorkload) fidelity() *overlayWorkload {
	f := *w
	f.seeds = min(w.seeds, fidelitySeeds)
	f.pop.n = fidelityRequesters
	f.coalesce = 0
	return &f
}

// admitLatencies returns every scheduled requester's latency from its due
// arrival to session start, in virtual ms; a requester never admitted is
// +Inf, beyond every percentile.
func admitLatencies(res []reqResult) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		if r.report == nil {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(r.admitV-r.Offset) / 1e6
	}
	return out
}
