package expgrid

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Baseline is one metric's committed regression policy, as the
// BENCH_*.json baseline files spell it: a reference value, a direction
// ("higher" = bigger is better, anything else conservative-higher;
// "lower" = smaller is better; "exact" = a reproduced number with no
// better side, off by more than the tolerance either way fails) and
// a fractional tolerance. A zero-valued lower-is-better baseline with
// zero tolerance is a hard gate; an exact baseline with zero
// tolerance pins a deterministic result bit for bit.
type Baseline struct {
	Value     float64 `json:"value"`
	Direction string  `json:"direction,omitempty"`
	Tolerance float64 `json:"tolerance,omitempty"`
}

// Within applies the policy to an observed value, returning the
// verdict and the bound that was enforced.
func (b Baseline) Within(got float64) (bool, float64) {
	switch b.Direction {
	case "exact":
		return math.Abs(got-b.Value) <= math.Abs(b.Value)*b.Tolerance, b.Value
	case "lower":
		bound := b.Value * (1 + b.Tolerance)
		return got <= bound, bound
	default: // "higher" (and unset, the conservative reading)
		bound := b.Value * (1 - b.Tolerance)
		return got >= bound, bound
	}
}

// WriteReport renders the grid run as a markdown report: one section
// per row with a metric table (mean ± std over the repeats, min/max,
// and — when the row has a committed baseline — the baseline value
// and verdict). baselines maps row id -> metric -> policy, loaded
// from the BENCH_*.json files under cmd/scads-bench/baselines/; rows
// without an entry are reported as ungated. The report is what CI
// publishes to the job summary, so a regression must be readable here
// without downloading any artifact.
func WriteReport(w io.Writer, res *GridResult, baselines map[string]map[string]Baseline) error {
	var b strings.Builder
	b.WriteString("# scads-bench experiment grid\n\n")
	b.WriteString("| row | experiment | repeats | wall time |\n|---|---|---:|---:|\n")
	for _, row := range res.Rows {
		var total float64
		for _, rep := range row.Repeats {
			total += rep.Duration.Seconds()
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %.1fs |\n", row.Row.ID, row.Row.Experiment, len(row.Repeats), total)
	}
	b.WriteString("\n")

	for _, row := range res.Rows {
		base := baselines[row.Row.ID]
		fmt.Fprintf(&b, "## %s (%s, %d repeat(s))\n\n", row.Row.ID, row.Row.Experiment, len(row.Repeats))
		if row.Row.Note != "" {
			fmt.Fprintf(&b, "%s\n\n", row.Row.Note)
		}
		if len(row.Row.Params) > 0 {
			var parts []string
			for _, name := range sortedKeys(row.Row.Params) {
				parts = append(parts, fmt.Sprintf("%s=%s", name, formatFloat(row.Row.Params[name])))
			}
			fmt.Fprintf(&b, "Overrides: `%s` (seed %d)\n\n", strings.Join(parts, " "), row.Row.Seed)
		}
		if base == nil {
			b.WriteString("_No committed baseline: informational row (commit one under cmd/scads-bench/baselines/ to gate it)._\n\n")
		}
		b.WriteString("| metric | mean | std | min | max | baseline | verdict |\n|---|---:|---:|---:|---:|---:|---|\n")
		for _, name := range sortedKeys(row.Grouped) {
			a := row.Grouped[name]
			baseCell, verdict := "—", "—"
			if bm, ok := base[name]; ok {
				baseCell = formatShort(bm.Value)
				if ok, bound := bm.Within(a.Mean); ok {
					verdict = "ok"
				} else {
					verdict = fmt.Sprintf("**REGRESSION** (%s bound %s)", bm.Direction, formatShort(bound))
				}
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s |\n",
				name, formatShort(a.Mean), formatShort(a.Std), formatShort(a.Min), formatShort(a.Max), baseCell, verdict)
		}
		// Baseline metrics the run no longer reports are regressions in
		// the compare gate; surface them here too.
		for _, name := range sortedKeys(base) {
			if _, ok := row.Grouped[name]; !ok {
				fmt.Fprintf(&b, "| %s | — | — | — | — | %s | **REGRESSION** (metric missing from run) |\n",
					name, formatShort(base[name].Value))
			}
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatShort renders a value for the report table: round-trippable
// is unnecessary here, readable is — 4 significant digits.
func formatShort(v float64) string {
	return strconv.FormatFloat(v, 'g', 4, 64)
}
