package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"p2pstream/internal/media"
)

// usage is the process's resource use over one measured phase.
type usage struct {
	cpu        time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// sampleUsage reads the process CPU time and the runtime's memory
// statistics.
func sampleUsage() (time.Duration, runtime.MemStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cpuTime(), ms
}

// usageSince returns the usage accrued since a sampleUsage call.
func usageSince(cpu0 time.Duration, mem0 runtime.MemStats) usage {
	cpu1, mem1 := sampleUsage()
	return usage{
		cpu:        cpu1 - cpu0,
		allocBytes: mem1.TotalAlloc - mem0.TotalAlloc,
		mallocs:    mem1.Mallocs - mem0.Mallocs,
		gcCycles:   mem1.NumGC - mem0.NumGC,
		gcPause:    time.Duration(mem1.PauseTotalNs - mem0.PauseTotalNs),
	}
}

// roundCosts collects rounds' resource use for the runtime.* metrics,
// each reported as the median over rounds.
type roundCosts struct {
	cpuS, util, allocMB, allocsPerAdmit, gcs, gcPause []float64
}

func (c *roundCosts) add(u usage, measured time.Duration, admitted int64) {
	c.cpuS = append(c.cpuS, u.cpu.Seconds())
	c.util = append(c.util, u.cpu.Seconds()/measured.Seconds())
	c.allocMB = append(c.allocMB, float64(u.allocBytes)/1e6)
	c.allocsPerAdmit = append(c.allocsPerAdmit, ratio(float64(u.mallocs), float64(admitted)))
	c.gcs = append(c.gcs, float64(u.gcCycles))
	c.gcPause = append(c.gcPause, float64(u.gcPause)/1e6)
}

func (c *roundCosts) fill(m map[string]float64) {
	m["runtime.cpu_s"] = median(c.cpuS)
	m["runtime.cpu_util"] = median(c.util)
	m["runtime.alloc_mb"] = median(c.allocMB)
	m["runtime.allocs_per_admit"] = median(c.allocsPerAdmit)
	m["runtime.gc_cycles"] = median(c.gcs)
	m["runtime.gc_pause_ms"] = median(c.gcPause)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPoll is how often a heapWatch reads the live heap. The runtime
// updates it once per GC cycle, so the poll only has to keep up with the
// GC.
const heapPoll = 5 * time.Millisecond

// heapWatch tracks the largest live heap any GC cycle marks while it
// runs: the memory the program holds, without the GC's growth headroom
// that makes resident size vary from run to run.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64 // owned by the watching goroutine until done closes
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapPoll)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.peak = max(h.peak, s[0].Value.Uint64())
}

// end collects once more, so the heap as the phase left it counts too,
// stops the watcher and returns the peak live heap in MB.
func (h *heapWatch) end() float64 {
	runtime.GC()
	close(h.stop)
	<-h.done
	h.sample()
	return float64(h.peak) / 1e6
}

// peakRSSMB is the process's peak resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kB on Linux
}

// segmentID converts a segment index for the store accessors.
func segmentID(i int) media.SegmentID { return media.SegmentID(i) }
