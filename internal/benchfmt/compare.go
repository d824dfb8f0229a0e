package benchfmt

import (
	"fmt"
	"io"
)

// tolerance is the allowed fractional change before a metric counts as
// a regression: a lower-better metric may grow to 1.5× the baseline (and
// a higher-better one shrink to 1/1.5×). A value exactly at the band
// edge passes. Benchmark timings on shared CI hosts are that noisy.
const tolerance = 0.5

// hardUnits are the deterministic counters that stay meaningful on noisy
// shared hosts: a regression in one, or its loss, fails the gate.
var hardUnits = map[string]bool{"allocs/op": true, "allocs/row": true}

// Delta is one metric's old-vs-new pair.
type Delta struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Unit       string  `json:"unit,omitempty"`
	Better     string  `json:"better"`
	Old        float64 `json:"old"`
	New        float64 `json:"new"`
	// Ratio is new/old, or 0 when the baseline is 0.
	Ratio float64 `json:"ratio"`
	// Hard marks a delta in one of the hardUnits: its regression fails
	// the gate.
	Hard bool `json:"hard,omitempty"`
}

func (d Delta) String() string {
	arrow := "worse"
	switch {
	case d.Better == HigherBetter && d.New > d.Old:
		arrow = "better"
	case d.Better != HigherBetter && d.New < d.Old:
		arrow = "better"
	}
	return fmt.Sprintf("%s %s: %.4g -> %.4g %s (%.2fx, %s-is-better, %s)",
		d.Experiment, d.Metric, d.Old, d.New, d.Unit, d.Ratio, d.Better, arrow)
}

// CompareReport is the outcome of diffing two artifacts.
type CompareReport struct {
	// Regressions are metrics strictly outside the tolerance band in the
	// worse direction. Only the Hard ones fail the gate.
	Regressions []Delta `json:"regressions,omitempty"`
	// Improvements are metrics outside the band in the better direction
	// (reported so a suspicious 10× "improvement" — often a broken
	// experiment — is visible, but they never fail the gate).
	Improvements []Delta `json:"improvements,omitempty"`
	// Missing lists experiments or metrics present in the baseline but
	// absent from the new run.
	Missing []string `json:"missing,omitempty"`
	// HardMissing is the subset of Missing that loses a hard-unit
	// measurement (directly, or via a whole missing experiment that
	// carried one): losing a deterministic counter is itself hard.
	HardMissing []string `json:"hard_missing,omitempty"`
	// Added lists experiments/metrics new in this run — informational.
	Added []string `json:"added,omitempty"`
}

// OK reports whether nothing regressed and nothing went missing.
func (r *CompareReport) OK() bool {
	return len(r.Regressions) == 0 && len(r.Missing) == 0
}

// HardFail reports whether a hard-unit metric regressed or went missing:
// the only outcome that fails the gate.
func (r *CompareReport) HardFail() bool {
	if len(r.HardMissing) > 0 {
		return true
	}
	for _, d := range r.Regressions {
		if d.Hard {
			return true
		}
	}
	return false
}

// Format writes a human-readable summary.
func (r *CompareReport) Format(w io.Writer) {
	for _, m := range r.Missing {
		fmt.Fprintf(w, "MISSING  %s\n", m)
	}
	for _, d := range r.Regressions {
		tag := "REGRESS "
		if d.Hard {
			tag = "REGRESS!"
		}
		fmt.Fprintf(w, "%s %s\n", tag, d)
	}
	for _, d := range r.Improvements {
		fmt.Fprintf(w, "improve  %s\n", d)
	}
	for _, m := range r.Added {
		fmt.Fprintf(w, "added    %s\n", m)
	}
	switch {
	case r.HardFail():
		fmt.Fprintf(w, "compare: FAIL (%d regression(s), %d missing, hard-unit failure)\n", len(r.Regressions), len(r.Missing))
	case !r.OK():
		fmt.Fprintf(w, "compare: WARN (%d regression(s), %d missing; only allocs/op and allocs/row fail)\n", len(r.Regressions), len(r.Missing))
	default:
		fmt.Fprintf(w, "compare: OK (%d improvement(s), %d added)\n", len(r.Improvements), len(r.Added))
	}
}

// Compare diffs new against the old baseline. Experiments are matched by
// ID, measurements by name; direction comes from the BASELINE's Better
// field (the baseline defines the contract a new run is held to).
func Compare(old, new_ *Artifact) *CompareReport {
	rep := &CompareReport{}
	seen := map[string]bool{}
	for i := range old.Experiments {
		oe := &old.Experiments[i]
		seen[oe.ID] = true
		ne := new_.Find(oe.ID)
		if ne == nil {
			rep.Missing = append(rep.Missing, "experiment "+oe.ID)
			// Losing a whole experiment loses its counters too: surface
			// each hard-unit measurement it carried.
			for j := range oe.Measurements {
				if om := &oe.Measurements[j]; hardUnits[om.Unit] {
					rep.HardMissing = append(rep.HardMissing,
						fmt.Sprintf("measurement %s %s", oe.ID, om.Name))
				}
			}
			continue
		}
		for j := range oe.Measurements {
			om := &oe.Measurements[j]
			nm := ne.Measurement(om.Name)
			if nm == nil {
				m := fmt.Sprintf("measurement %s %s", oe.ID, om.Name)
				rep.Missing = append(rep.Missing, m)
				if hardUnits[om.Unit] {
					rep.HardMissing = append(rep.HardMissing, m)
				}
				continue
			}
			better := om.Better
			if better == "" {
				better = LowerBetter
			}
			d := Delta{
				Experiment: oe.ID, Metric: om.Name, Unit: om.Unit,
				Better: better, Old: om.Value, New: nm.Value,
				Hard: hardUnits[om.Unit],
			}
			switch {
			case om.Value > 0:
				classify(rep, d)
			case d.Hard && better == LowerBetter && nm.Value > om.Value:
				// No ratio against a zero baseline, but a counter that
				// was 0 and is not has regressed however small it is.
				rep.Regressions = append(rep.Regressions, d)
			}
		}
		for j := range ne.Measurements {
			if oe.Measurement(ne.Measurements[j].Name) == nil {
				rep.Added = append(rep.Added, fmt.Sprintf("measurement %s %s", oe.ID, ne.Measurements[j].Name))
			}
		}
	}
	for i := range new_.Experiments {
		if !seen[new_.Experiments[i].ID] {
			rep.Added = append(rep.Added, "experiment "+new_.Experiments[i].ID)
		}
	}
	return rep
}

// classify routes a delta into regressions/improvements, or drops it as
// within-band. The band is inclusive: new == old*(1+tolerance) (or
// old/(1+tolerance) for higher-better) still passes.
func classify(rep *CompareReport, d Delta) {
	d.Ratio = d.New / d.Old
	if d.Better == HigherBetter {
		if d.New*(1+tolerance) < d.Old {
			rep.Regressions = append(rep.Regressions, d)
		} else if d.New > d.Old*(1+tolerance) {
			rep.Improvements = append(rep.Improvements, d)
		}
		return
	}
	if d.New > d.Old*(1+tolerance) {
		rep.Regressions = append(rep.Regressions, d)
	} else if d.New*(1+tolerance) < d.Old {
		rep.Improvements = append(rep.Improvements, d)
	}
}
