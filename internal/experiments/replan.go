package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
)

// AblationReplan evaluates the online re-planner against a static
// planner that was fed a mis-ranked operator profile. For each skew
// preset the ablation distorts the measured profile (claiming one
// operator class is far faster than it is), lets the dry-run planner
// pick under the lie, then trains the same task twice: once pinned to
// the mis-ranked pick, once with TrainAdaptive, whose per-epoch
// calibration compares measured stage times against the (distorted)
// predictions, corrects the model, and switches behind the hysteresis
// guard. Presets where the distortion does not flip the ranking are
// reported and skipped — the interesting rows are the ones where the
// static planner is stuck with a provably wrong strategy.
func (e *Env) AblationReplan() (string, error) {
	var b strings.Builder
	b.WriteString(header("Ablation: online re-planning",
		"mis-profiled planner: static pick vs calibrated re-planning"))
	epochs := e.opts.Epochs
	if epochs < 4 {
		epochs = 4
	}
	type distortion struct {
		name  string
		apply func(p comm.Profile) *comm.Profile
	}
	distortions := []distortion{
		{"collectives 50x fast", func(p comm.Profile) *comm.Profile {
			p.AllToAllBps *= 50
			p.AllGatherBps *= 50
			return &p
		}},
		{"host reads 50x fast", func(p comm.Profile) *comm.Profile {
			p.UVAReadBps *= 50
			p.RemoteReadBps *= 50
			return &p
		}},
	}
	for _, abbr := range []string{"PS", "FS", "IM"} {
		base := e.task(taskConfig{abbr: abbr, hidden: 32, int8Frac: 0.25})

		// The truthful planner's pick is the reference ranking.
		truth, err := core.New(base)
		if err != nil {
			return "", err
		}
		trueChoice, err := truth.Plan()
		if err != nil {
			return "", err
		}
		honest := truth.Profile()

		var misranked bool
		for _, d := range distortions {
			task := base
			task.ProfileOverride = d.apply(*honest)

			liar, err := core.New(task)
			if err != nil {
				return "", err
			}
			badChoice, err := liar.Plan()
			if err != nil {
				return "", err
			}
			if badChoice == trueChoice {
				continue
			}
			misranked = true

			staticRes, err := liar.TrainWith(badChoice, epochs)
			if err != nil {
				return "", err
			}
			adaptive, err := core.New(task)
			if err != nil {
				return "", err
			}
			adaptRes, err := adaptive.TrainAdaptive(epochs)
			if err != nil {
				return "", err
			}

			fmt.Fprintf(&b, "  %s under %q: dry-run misranks %v over %v\n",
				abbr, d.name, badChoice, trueChoice)
			fmt.Fprintf(&b, "    static %-6v mean epoch %.4fs (last %.4fs)\n",
				badChoice, staticRes.SimulatedEpochSeconds(), lastEpochSec(staticRes))
			fmt.Fprintf(&b, "    adaptive      mean epoch %.4fs (last %.4fs, final plan %v)\n",
				adaptRes.SimulatedEpochSeconds(), lastEpochSec(adaptRes), adaptRes.Choice)
			for _, ev := range adaptRes.Replans {
				fmt.Fprintf(&b, "    switch after epoch %d: %v -> %v (predicted gain %.0f%%, "+
					"cal build %.2f host-load %.2f shuffle %.2f)\n",
					ev.Epoch, ev.From, ev.To, ev.PredictedGain*100,
					ev.Cal.Build, ev.Cal.LoadHost, ev.Cal.Shuffle)
			}
			if n := len(adaptRes.Epochs); n > 0 {
				fmt.Fprintf(&b, "    per-tier reads (final epoch): %s\n",
					tierReadShares(adaptRes.Epochs[n-1]))
			}
			break
		}
		if !misranked {
			fmt.Fprintf(&b, "  %s: no distortion flipped the ranking (true pick %v is robust)\n",
				abbr, trueChoice)
		}
	}
	return b.String(), nil
}

// lastEpochSec is the simulated time of a result's final epoch.
func lastEpochSec(r *core.Result) float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	return r.Epochs[len(r.Epochs)-1].EpochTime()
}

// tierReadShares renders the fraction of feature-row reads served per
// location — the unified store's per-tier hit rates (fp32 hot band,
// int8 warm band, peer, host, remote).
func tierReadShares(st engine.EpochStats) string {
	var total int64
	for _, n := range st.Totals.Load.Nodes {
		total += n
	}
	if total == 0 {
		return "no feature reads"
	}
	parts := make([]string, 0, cache.NumLocations)
	for loc, n := range st.Totals.Load.Nodes {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s %.1f%%",
				cache.Location(loc), float64(n)*100/float64(total)))
		}
	}
	return strings.Join(parts, ", ")
}
