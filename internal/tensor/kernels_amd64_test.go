package tensor

import (
	"os"
	"strings"
	"testing"
)

// TestAVX2DetectionMatchesCPUInfo checks the CPUID/XGETBV stub against
// the kernel's own reading of the same bits. The comparison tests skip
// when hasAVX2 is false, so a detection that wrongly said "no" would
// turn them all into skips without this.
func TestAVX2DetectionMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				listed = listed || f == "avx2"
			}
			break
		}
	}
	if listed != hasAVX2 {
		t.Errorf("hasAVX2 = %v, /proc/cpuinfo lists avx2: %v", hasAVX2, listed)
	}
}
