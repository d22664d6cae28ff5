// Package sysinfo implements the paper's guidance on specifying hardware
// and software environments (slides 149-156): "We use a machine with
// 3.4 GHz" is under-specified; a 151-line lspci dump is over-specified; the
// right level names CPU vendor/model/generation/clock/caches, memory size,
// disk size/speed, and network — plus exact software versions.
package sysinfo

import (
	"fmt"
	"strconv"
	"strings"
)

// CacheSpec is one cache level.
type CacheSpec struct {
	Level     string // "L1", "L2", ...
	SizeBytes int64
}

// DiskSpec is one disk or array.
type DiskSpec struct {
	Description string // e.g. "Laptop ATA disk @ 5400RPM"
	SizeBytes   int64
}

// HWSpec is a hardware environment description.
type HWSpec struct {
	CPUVendor string
	CPUModel  string // model + generation, e.g. "Pentium M (Dothan)"
	ClockHz   float64
	Caches    []CacheSpec
	RAMBytes  int64
	Disks     []DiskSpec
	Network   string // type, speed & topology, e.g. "1Gb shared Ethernet"
}

// ProductVersion names one software product with its exact version and
// (optionally) where it was obtained.
type ProductVersion struct {
	Name    string
	Version string
	Source  string
}

// SWSpec is a software environment description.
type SWSpec struct {
	OS       string
	Kernel   string
	Compiler string
	Flags    string // the exact optimization flags: the DBG/OPT anecdote
	Products []ProductVersion
}

// DetailLevel classifies how much detail a spec report carries.
type DetailLevel int

const (
	// Under is the "3.4 GHz" one-liner: not reproducible.
	Under DetailLevel = iota
	// Right is the paper's recommended level.
	Right
	// Over is the full lspci dump: drowns the signal.
	Over
)

func (d DetailLevel) String() string {
	switch d {
	case Under:
		return "under-specified"
	case Right:
		return "right-sized"
	case Over:
		return "over-specified"
	default:
		return fmt.Sprintf("DetailLevel(%d)", int(d))
	}
}

// Report renders the spec at the requested detail level. Right is the
// paper's slide-155 format.
func (h *HWSpec) Report(level DetailLevel) string {
	switch level {
	case Under:
		return fmt.Sprintf("We use a machine with %s.", fmtHz(h.ClockHz))
	case Over:
		var b strings.Builder
		b.WriteString(h.Report(Right))
		b.WriteString("\n-- full device listing --\n")
		for i := 0; i < 150; i++ {
			fmt.Fprintf(&b, "%02x:%02x.0 Device: vendor-specific function %d (rev %02d)\n", i/8, i%8, i, i%16)
		}
		return b.String()
	default:
		var b strings.Builder
		fmt.Fprintf(&b, "CPU: %s %s, %s", h.CPUVendor, h.CPUModel, fmtHz(h.ClockHz))
		for _, c := range h.Caches {
			fmt.Fprintf(&b, ", %s %s cache", fmtBytes(c.SizeBytes), c.Level)
		}
		fmt.Fprintf(&b, "\nMain memory: %s RAM\n", fmtBytes(h.RAMBytes))
		for _, d := range h.Disks {
			fmt.Fprintf(&b, "Disk: %s %s\n", fmtBytes(d.SizeBytes), d.Description)
		}
		if h.Network != "" {
			fmt.Fprintf(&b, "Network: %s\n", h.Network)
		}
		return b.String()
	}
}

// Classify estimates the detail level of a free-form hardware description:
// a clock speed alone is under-specified; dozens of device lines are
// over-specified; CPU+memory+disk data is right-sized.
func Classify(report string) DetailLevel {
	lines := strings.Count(strings.TrimSpace(report), "\n") + 1
	if lines > 40 {
		return Over
	}
	lower := strings.ToLower(report)
	score := 0
	for _, signal := range []string{"cache", "ram", "memory", "disk", "rpm", "cpu"} {
		if strings.Contains(lower, signal) {
			score++
		}
	}
	if score >= 3 {
		return Right
	}
	return Under
}

func fmtHz(hz float64) string {
	switch {
	case hz >= 1e9:
		return trimZero(hz/1e9) + " GHz"
	case hz >= 1e6:
		return trimZero(hz/1e6) + " MHz"
	default:
		return trimZero(hz) + " Hz"
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return trimZero(float64(b)/(1<<30)) + "GB"
	case b >= 1<<20:
		return trimZero(float64(b)/(1<<20)) + "MB"
	case b >= 1<<10:
		return trimZero(float64(b)/(1<<10)) + "KB"
	default:
		return strconv.FormatInt(b, 10) + "B"
	}
}

func trimZero(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
