package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// procSample is one reading of the process counters a measured phase is
// charged with: CPU time (getrusage, user+sys, every thread) and the
// heap's cumulative allocation counts.
type procSample struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	bytes  uint64
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(allocSamples)
	return procSample{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: allocSamples[0].Value.Uint64(),
		bytes:  allocSamples[1].Value.Uint64(),
	}
}

// procDelta is what one phase cost the process.
type procDelta struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	bytes  uint64
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, allocs: b.allocs - a.allocs, bytes: b.bytes - a.bytes}
}

func (d *procDelta) add(o procDelta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.allocs += o.allocs
	d.bytes += o.bytes
}

// heapWatch samples the live heap — the bytes the last GC cycle marked
// reachable — every interval until stopped and keeps the peak. Live
// bytes, unlike bytes allocated, do not swing with where a GC cycle
// happens to fall, and runtime/metrics reads do not stop the world, so
// the watcher barely perturbs the phase.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapWatchInterval = 10 * time.Millisecond

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapWatchInterval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.read()
			}
		}
	}()
	return h
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// read is only called from the watcher's own goroutine after start.
func (h *heapWatch) read() {
	metrics.Read(heapSample)
	if v := heapSample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// Stop ends the watch and returns the peak in bytes.
func (h *heapWatch) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	h.read()
	return h.peak
}

// settle collects the garbage earlier phases left behind so one phase's
// GC debt is not charged to the next.
func settle() { runtime.GC() }
