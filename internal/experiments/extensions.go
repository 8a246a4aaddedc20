package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/hardware"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// ExtensionCPUCache evaluates the paper's footnote-3 mechanism: each
// machine replicates hot remotely-hosted features into excess CPU
// memory, cutting cross-machine reads on the distributed platform.
func (e *Env) ExtensionCPUCache() (string, error) {
	var b strings.Builder
	b.WriteString(header("Extension: CPU hotness cache", "per-machine replication of hot remote features (paper footnote 3)"))
	p := hardware.FourMachines4GPU()
	for _, abbr := range []string{"PS", "FS"} {
		d := e.Dataset(abbr)
		base := e.task(taskConfig{abbr: abbr, hidden: 32, platform: p})
		withCPU := e.task(taskConfig{abbr: abbr, hidden: 32, platform: p})
		withCPU.CPUCacheBytes = d.CacheBytesFraction(0.25)
		off, err := e.RunCase(base)
		if err != nil {
			return "", err
		}
		on, err := e.RunCase(withCPU)
		if err != nil {
			return "", err
		}
		rows := [][]string{}
		for _, k := range strategy.Core {
			offSt, onSt := off.Stats[k], on.Stats[k]
			rows = append(rows, []string{k.String(),
				fmt.Sprintf("%.1fMB", float64(offSt.Totals.Load.Bytes[cache.LocRemoteCPU])/1e6),
				fmt.Sprintf("%.1fMB", float64(onSt.Totals.Load.Bytes[cache.LocRemoteCPU])/1e6),
				fmt.Sprintf("%.4fs", offSt.EpochTime()),
				fmt.Sprintf("%.4fs", onSt.EpochTime()),
			})
		}
		b.WriteString(trace.RenderTable(fmt.Sprintf("%s distributed", abbr),
			[]string{"strategy", "remote reads (off)", "remote reads (on)", "epoch (off)", "epoch (on)"}, rows))
	}
	return b.String(), nil
}
