package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// usage is the Go runtime's cumulative cost counters.
type usage struct {
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds the runtime had processors available
}

func readUsage() usage {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return usage{
		allocBytes: samples[0].Value.Uint64(),
		gcCPU:      samples[1].Value.Float64(),
		totalCPU:   samples[2].Value.Float64(),
	}
}

func (u usage) since(before usage) usage {
	return usage{u.allocBytes - before.allocBytes, u.gcCPU - before.gcCPU, u.totalCPU - before.totalCPU}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB, or 0 where /proc does not provide it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
