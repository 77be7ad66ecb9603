// Package hostinfo describes the machine a run was measured on and
// reads the process-wide resource counters (CPU time, allocation,
// peak resident set) whose deltas become per-operation costs.
package hostinfo

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// Host is the `host` block printed with every result.
type Host struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// Describe fills the host block.
func Describe() Host {
	return Host{
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// CheckProcs refuses a run whose GOMAXPROCS exceeds the CPUs the
// process may use: such a run measures oversubscription, not the
// program.
func (h Host) CheckProcs() error {
	if h.GOMAXPROCS > h.NProc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d: refusing to measure an oversubscribed run", h.GOMAXPROCS, h.NProc)
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// Usage is one reading of the process-wide counters.
type Usage struct {
	AllocBytes uint64 // cumulative bytes allocated
	Mallocs    uint64 // cumulative heap objects allocated
}

// CPUNs is the process's user+system CPU time so far, from getrusage.
func CPUNs() int64 {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid struct pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// StealNs is the time the host has so far kept this machine's virtual
// CPUs waiting for a physical one while they had work to do (the steal
// column of /proc/stat's first line, in the kernel's 10 ms ticks),
// summed over the CPUs; 0 where the kernel does not say.
func StealNs() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	const tickNs = 10_000_000 // USER_HZ is 100 on every Linux ABI
	return ticks * tickNs
}

// Sub returns u - b.
func (u Usage) Sub(b Usage) Usage {
	return Usage{AllocBytes: u.AllocBytes - b.AllocBytes, Mallocs: u.Mallocs - b.Mallocs}
}

// Add returns u + b.
func (u Usage) Add(b Usage) Usage {
	return Usage{AllocBytes: u.AllocBytes + b.AllocBytes, Mallocs: u.Mallocs + b.Mallocs}
}

// ReadUsage reads the allocation totals from the Go runtime.
func ReadUsage() Usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Usage{
		AllocBytes: ms.TotalAlloc,
		Mallocs:    ms.Mallocs,
	}
}

// PeakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func PeakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
