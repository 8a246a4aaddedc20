package tensor

import (
	"os"
	"strings"
	"testing"
)

// cpuinfoLists reports whether /proc/cpuinfo's first "flags" line lists
// flag, skipping the test where there is no /proc/cpuinfo.
func cpuinfoLists(t *testing.T, flag string) bool {
	t.Helper()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				if f == flag {
					return true
				}
			}
			return false
		}
	}
	return false
}

// TestAVX2DetectionMatchesCPUInfo checks the CPUID/XGETBV stub against
// the kernel's own reading of the same bits. The comparison tests skip
// when hasAVX2 is false, so a detection that wrongly said "no" would
// turn them all into skips without this.
func TestAVX2DetectionMatchesCPUInfo(t *testing.T) {
	if listed := cpuinfoLists(t, "avx2"); listed != hasAVX2 {
		t.Errorf("hasAVX2 = %v, /proc/cpuinfo lists avx2: %v", hasAVX2, listed)
	}
	t.Logf("hasAVX2 = %v", hasAVX2)
}

// TestAVX512DetectionMatchesCPUInfo is the same check for the four-row
// kernel's tier: the kernel lists avx512f only when the OS enables the
// ZMM state, which is what hasAVX512 requires too.
func TestAVX512DetectionMatchesCPUInfo(t *testing.T) {
	if listed := cpuinfoLists(t, "avx512f"); listed != hasAVX512 {
		t.Errorf("hasAVX512 = %v, /proc/cpuinfo lists avx512f: %v", hasAVX512, listed)
	}
	t.Logf("hasAVX512 = %v", hasAVX512)
}
