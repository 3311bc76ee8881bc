package exp

import (
	"os"
	"runtime"
	"strings"
)

// HostInfo describes the machine a measurement was taken on: a wall-clock
// number is meaningless without knowing how much parallelism the host
// could express. perfbench stamps it on every row it writes.
type HostInfo struct {
	// CPUs is the number of logical CPUs (runtime.NumCPU).
	CPUs int
	// GOMAXPROCS is the effective Go scheduler width at record time.
	GOMAXPROCS int
	// CPUModel is the processor model string, "unknown" when it cannot be
	// determined.
	CPUModel string
}

// Host returns the current machine's HostInfo.
func Host() HostInfo {
	return HostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel extracts the processor model from /proc/cpuinfo (Linux); other
// platforms report "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok {
			switch strings.TrimSpace(name) {
			case "model name", "Processor", "cpu model":
				return strings.TrimSpace(value)
			}
		}
	}
	return "unknown"
}
