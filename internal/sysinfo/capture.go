package sysinfo

import (
	"fmt"
	"os"
	"runtime"
)

// Capture assembles a best-effort hardware/software spec of the machine the
// process runs on: CPU details from /proc/cpuinfo where available (Linux),
// falling back to runtime information elsewhere. The result is a starting
// point: memory, disks and network still need filling in by hand,
// because an honest partial spec beats a fabricated complete one.
func Capture() (HWSpec, SWSpec, error) {
	var hw HWSpec
	if text, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if info, perr := ParseCPUInfo(string(text)); perr == nil {
			hw = info.ToHWSpec()
		}
	}
	if hw.CPUModel == "" {
		hw.CPUModel = fmt.Sprintf("%s/%s, %d logical CPUs", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	}
	sw := SWSpec{
		OS:       runtime.GOOS,
		Compiler: runtime.Version(),
		Flags:    "go build defaults",
		Products: []ProductVersion{{Name: "repro", Version: "1.0", Source: "this repository"}},
	}
	return hw, sw, nil
}
