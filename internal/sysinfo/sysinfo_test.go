package sysinfo

import (
	"strings"
	"testing"
)

// paperLaptop is the machine the paper reports on slide 155.
func paperLaptop() HWSpec {
	return HWSpec{
		CPUVendor: "Intel",
		CPUModel:  "Pentium M (Dothan)",
		ClockHz:   1.5e9,
		Caches: []CacheSpec{
			{Level: "L1", SizeBytes: 32 << 10},
			{Level: "L2", SizeBytes: 2 << 20},
		},
		RAMBytes: 2 << 30,
		Disks:    []DiskSpec{{Description: "Laptop ATA disk @ 5400RPM", SizeBytes: 120 << 30}},
		Network:  "1Gb shared Ethernet",
	}
}

func TestRightSizedReport(t *testing.T) {
	spec := paperLaptop()
	report := spec.Report(Right)
	for _, want := range []string{"Pentium M (Dothan)", "1.5 GHz", "32KB L1 cache", "2MB L2 cache", "2GB RAM", "120GB", "5400RPM", "1Gb shared Ethernet"} {
		if !strings.Contains(report, want) {
			t.Errorf("right-sized report missing %q:\n%s", want, report)
		}
	}
	if Classify(report) != Right {
		t.Errorf("right-sized report classified as %v", Classify(report))
	}
}

func TestUnderSpecifiedReport(t *testing.T) {
	spec := HWSpec{ClockHz: 3.4e9}
	report := spec.Report(Under)
	if report != "We use a machine with 3.4 GHz." {
		t.Errorf("under report = %q", report)
	}
	if Classify(report) != Under {
		t.Errorf("one-liner classified as %v", Classify(report))
	}
}

func TestOverSpecifiedReport(t *testing.T) {
	spec := paperLaptop()
	report := spec.Report(Over)
	if lines := strings.Count(report, "\n"); lines < 100 {
		t.Errorf("over report has only %d lines", lines)
	}
	if Classify(report) != Over {
		t.Errorf("lspci-style dump classified as %v", Classify(report))
	}
}

func TestDetailLevelStrings(t *testing.T) {
	for d, want := range map[DetailLevel]string{Under: "under-specified", Right: "right-sized", Over: "over-specified"} {
		if d.String() != want {
			t.Errorf("%d = %q", int(d), d.String())
		}
	}
	if DetailLevel(9).String() == "" {
		t.Error("unknown level should render")
	}
}

// paperCPUInfo is the paper's slide-152 /proc/cpuinfo sample (abridged to
// the parsed fields, values verbatim).
const paperCPUInfo = `processor	: 0
vendor_id	: GenuineIntel
cpu family	: 6
model		: 13
model name	: Intel(R) Pentium(R) M processor 1.50GHz
stepping	: 6
cpu MHz		: 600.000
cache size	: 2048 KB
flags		: fpu vme de pse tsc msr mce cx8 mtrr pge mca cmov pat clflush
bogomips	: 1196.56
`

func TestParsePaperCPUInfo(t *testing.T) {
	info, err := ParseCPUInfo(paperCPUInfo)
	if err != nil {
		t.Fatal(err)
	}
	if info.Vendor != "GenuineIntel" {
		t.Errorf("vendor = %q", info.Vendor)
	}
	if !strings.Contains(info.ModelName, "Pentium(R) M") {
		t.Errorf("model = %q", info.ModelName)
	}
	if info.MHz != 600 {
		t.Errorf("MHz = %g (frequency-scaled reading)", info.MHz)
	}
	if info.CacheKB != 2048 {
		t.Errorf("cache = %d KB", info.CacheKB)
	}
	if len(info.Flags) < 10 {
		t.Errorf("flags = %v", info.Flags)
	}

	// The spec must use the RATED 1.5 GHz from the model name, not the
	// momentary 600 MHz frequency-scaled reading — exactly the trap the
	// paper's sample contains.
	spec := info.ToHWSpec()
	if spec.ClockHz != 1.5e9 {
		t.Errorf("clock = %g, want rated 1.5e9 not scaled 6e8", spec.ClockHz)
	}
	if len(spec.Caches) != 1 || spec.Caches[0].SizeBytes != 2048<<10 {
		t.Errorf("caches = %v", spec.Caches)
	}
}

func TestParseCPUInfoErrors(t *testing.T) {
	if _, err := ParseCPUInfo("no colons here\njust text\n"); err == nil {
		t.Error("unparseable input should error")
	}
	// Multi-processor input stops at the second block.
	two := paperCPUInfo + "processor\t: 1\nvendor_id\t: OtherVendor\n"
	info, err := ParseCPUInfo(two)
	if err != nil {
		t.Fatal(err)
	}
	if info.Vendor != "GenuineIntel" {
		t.Errorf("should keep first block, got %q", info.Vendor)
	}
}

func TestRatedHzFromModel(t *testing.T) {
	cases := []struct {
		model string
		want  float64
	}{
		{"Intel(R) Pentium(R) M processor 1.50GHz", 1.5e9},
		{"AMD AthlonMP 1533MHz", 1.533e9},
		{"Some CPU", 0},
		{"GHz", 0},
	}
	for _, c := range cases {
		if got := ratedHzFromModel(c.model); got != c.want {
			t.Errorf("ratedHz(%q) = %g, want %g", c.model, got, c.want)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtHz(50e6) != "50 MHz" {
		t.Errorf("fmtHz = %q", fmtHz(50e6))
	}
	if fmtHz(100) != "100 Hz" {
		t.Errorf("fmtHz = %q", fmtHz(100))
	}
	if fmtBytes(512) != "512B" || fmtBytes(2<<10) != "2KB" || fmtBytes(3<<20) != "3MB" {
		t.Error("fmtBytes")
	}
}
