package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeReading is the Go runtime's cumulative allocation and CPU
// accounting at one instant; two readings bracket a phase.
type runtimeReading struct {
	mallocs, bytes uint64
	gcCPU, cpu     float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeReading {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeReading{
		mallocs: uint64(val(0)),
		bytes:   uint64(val(1)),
		gcCPU:   val(2),
		cpu:     val(3),
	}
}

// setRuntimeMetrics stores the per-op allocation and GC-share readings
// of the phase between a and b.
func setRuntimeMetrics(o *outcome, a, b runtimeReading, ops int) {
	n := float64(max(ops, 1))
	o.values["runtime.allocs_per_op"] = float64(b.mallocs-a.mallocs) / n
	o.values["runtime.bytes_per_op"] = float64(b.bytes-a.bytes) / n
	frac := 0.0
	if cpu := b.cpu - a.cpu; cpu > 0 {
		frac = (b.gcCPU - a.gcCPU) / cpu
	}
	o.values["runtime.gc_cpu_frac"] = frac
}

// settle finishes lazy work left by set-up so it is not billed to the
// measured window.
func settle() { runtime.GC() }
