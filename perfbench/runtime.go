package main

import (
	"runtime"
	"runtime/metrics"
)

// runtimeSample is a runtime/metrics reading at the start of a
// measurement window; stop reads again and reports the difference.
type runtimeSample struct {
	s []metrics.Sample
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRuntime() *runtimeSample { return &runtimeSample{s: readRuntime()} }

// stop sets the runtime layer's metrics for the window: allocation per
// operation, GC cycles (including the forced one before each analysis
// operation), the GC share of CPU time and the longest GC pause.
func (r *runtimeSample) stop(rep *report, ops int) {
	now := readRuntime()
	u64 := func(i int) float64 { return float64(now[i].Value.Uint64() - r.s[i].Value.Uint64()) }
	f64 := func(i int) float64 { return now[i].Value.Float64() - r.s[i].Value.Float64() }
	rep.set("runtime.alloc_mb_per_op", finite(u64(0)/1e6/float64(ops)), "MB")
	rep.set("runtime.gc_cycles", u64(1), "count")
	rep.set("runtime.gc_cpu_share", finite(f64(2)/f64(3)), "ratio")
	before, after := r.s[4].Value.Float64Histogram(), now[4].Value.Float64Histogram()
	maxPause := 0.0
	for i := range after.Counts {
		if after.Counts[i] > before.Counts[i] {
			maxPause = after.Buckets[i+1] // upper bound of the bucket
		}
	}
	rep.set("runtime.gc_pause_max_ms", finite(maxPause*1e3), "ms")
}

// liveHeapMB collects garbage and returns the live heap: what holding
// the workload's state costs in memory.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}
