package obs

import (
	"runtime"
	"sync"
	"time"
)

// RuntimeCollector polls Go runtime health — goroutine count, heap
// size, GC totals — into gauges on a stoppable ticker, so a scraped
// /metrics page shows whether the process itself (not just the
// portal) is drowning. Gauges it maintains:
//
//	runtime_goroutines            current goroutine count
//	runtime_heap_alloc_bytes      live heap bytes
//	runtime_heap_objects          live heap objects
//	runtime_gc_pause_total_seconds cumulative stop-the-world pause
//	runtime_gc_runs_total         completed GC cycles
//	runtime_next_gc_bytes         heap size that triggers the next GC
type RuntimeCollector struct {
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartRuntimeCollector samples the runtime into o's gauges every
// second until Stop. One sample is taken synchronously before
// returning, so the gauges are live from the first scrape. Returns nil
// when o is nil.
func StartRuntimeCollector(o *Observer) *RuntimeCollector {
	return startRuntimeCollector(o, time.Second)
}

// startRuntimeCollector is StartRuntimeCollector with the poll period
// as a parameter, so tests can watch the ticker fire.
func startRuntimeCollector(o *Observer, interval time.Duration) *RuntimeCollector {
	if o == nil {
		return nil
	}
	c := &RuntimeCollector{stop: make(chan struct{}), done: make(chan struct{})}
	CollectRuntime(o)
	go func() {
		defer close(c.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				CollectRuntime(o)
			case <-c.stop:
				return
			}
		}
	}()
	return c
}

// Stop halts the ticker and waits for the poll goroutine to exit.
// Safe on nil and called more than once.
func (c *RuntimeCollector) Stop() {
	if c == nil {
		return
	}
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// CollectRuntime takes one runtime sample into o's gauges — the
// collector's tick body, callable directly in tests or one-shot
// report paths. Safe on a nil observer.
func CollectRuntime(o *Observer) {
	if o == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.Gauge("runtime_goroutines").Set(float64(runtime.NumGoroutine()))
	o.Gauge("runtime_heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	o.Gauge("runtime_heap_objects").Set(float64(ms.HeapObjects))
	o.Gauge("runtime_gc_pause_total_seconds").Set(float64(ms.PauseTotalNs) / 1e9)
	o.Gauge("runtime_gc_runs_total").Set(float64(ms.NumGC))
	o.Gauge("runtime_next_gc_bytes").Set(float64(ms.NextGC))
}
