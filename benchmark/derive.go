package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// spec is BENCHMARK.json: the contract between this program and
// whatever compares two commits with it.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runChild runs one workload in a fresh process, as the driver does,
// and returns the result line.
func runChild(workload string, seed int64, seconds float64, dataRoot string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-data-root", dataRoot)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !r.Correct {
		return r, fmt.Errorf("%s seed %d: incorrect results (%d of %d failed)", workload, seed, r.Failed, r.Attempted)
	}
	return r, nil
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// returns (the exclusive method), so the table here matches what the
// driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		lo = max(1, min(lo, len(s)-1))
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// deriveBounds runs every workload repeats times with successive seeds
// and prints, per metric, the runs, the quartiles and the bound they
// imply: three times the interquartile spread, at least 5%, at most the
// 25% the contract allows, as whole percents.
func deriveBounds(w io.Writer, sp *spec, seed int64, repeats int, seconds float64, dataRoot string) error {
	printEnvironment(w, dataRoot)
	fmt.Fprintf(w, "%d runs per workload, seeds %d..%d, %g measured seconds each.\n\n", repeats, seed, seed+int64(repeats)-1, seconds)
	worst := make(map[string]float64)
	for _, wl := range sp.Workloads {
		runs := make(map[string][]float64)
		for i := 0; i < repeats; i++ {
			r, err := runChild(wl.Name, seed+int64(i), seconds, dataRoot)
			if err != nil {
				return err
			}
			for name, m := range r.Metrics {
				runs[name] = append(runs[name], m.Value)
			}
		}
		fmt.Fprintf(w, "### %s\n\n| metric | unit | runs | q1 | median | q3 | iqr/median | 3x |\n|---|---|---|---|---|---|---|---|\n", wl.Name)
		for _, m := range sp.EndToEnd {
			v := runs[m.Name]
			if len(v) < 2 {
				return fmt.Errorf("%s: metric %s missing", wl.Name, m.Name)
			}
			q1, q2, q3 := quartiles(v)
			spread := ratio(q3-q1, q2)
			worst[m.Name] = max(worst[m.Name], spread)
			var cells []string
			for _, x := range v {
				cells = append(cells, fmt.Sprintf("%.4g", x))
			}
			fmt.Fprintf(w, "| `%s` | %s | %s | %.4g | %.4g | %.4g | %.1f%% | %.1f%% |\n",
				m.Name, m.Unit, strings.Join(cells, " "), q1, q2, q3, 100*spread, 300*spread)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "### Bounds\n\n| metric | widest iqr/median | bound = clamp(3x, 5%%, 25%%) | in BENCHMARK.json |\n|---|---|---|---|\n")
	for _, m := range sp.EndToEnd {
		bound := math.Ceil(min(max(3*worst[m.Name], 0.05), 0.25)*100) / 100
		fmt.Fprintf(w, "| `%s` | %.1f%% | %.0f%% | %.0f%% |\n", m.Name, 100*worst[m.Name], 100*bound, 100*m.Bound)
	}
	return nil
}

// selfCheck runs the full set twice on this tree and fails if any
// end-to-end metric of the second set is worse than the first by more
// than its bound.
func selfCheck(w io.Writer, sp *spec, seed int64, seconds float64, dataRoot string) error {
	printEnvironment(w, dataRoot)
	var failures []string
	for _, wl := range sp.Workloads {
		var sets [2]result
		for i := range sets {
			var err error
			if sets[i], err = runChild(wl.Name, seed, seconds, dataRoot); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, m := range sp.EndToEnd {
			a, b := sets[0].Metrics[m.Name].Value, sets[1].Metrics[m.Name].Value
			worse := ratio(b-a, a)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "OUT OF BOUND"
				failures = append(failures, wl.Name+"/"+m.Name)
			}
			fmt.Fprintf(w, "  %-22s %14.4f %14.4f %-6s %+7.1f%% worse (bound %.0f%%)  %s\n", m.Name, a, b, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("two runs of the same code disagree beyond the bound: %s", strings.Join(failures, ", "))
	}
	return nil
}

func printEnvironment(w io.Writer, dataRoot string) {
	fs := "unknown"
	var st syscall.Statfs_t
	if err := os.MkdirAll(dataRoot, 0o755); err == nil {
		if err := syscall.Statfs(dataRoot, &st); err == nil {
			fs = fmt.Sprintf("statfs type 0x%x", uint64(st.Type))
		}
	}
	fmt.Fprintf(w, "Environment: %s, %d CPUs, confined to one (GOMAXPROCS 1), %s/%s, data under %s (%s).\n\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, dataRoot, fs)
}
