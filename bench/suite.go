package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// suite runs every workload twice — tracing off, then on — each run in a
// fresh process of this same binary, so process.peak_rss_mb is the
// workload's own and one workload's garbage never taxes the next.
type suite struct {
	seed    int64
	seconds float64
	tiny    bool
}

// suiteWorkload is one workload's rows in the suite result.
type suiteWorkload struct {
	Name       string                 `json:"name"`
	Why        string                 `json:"why"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Samples    int                    `json:"samples"`
	RefHashes  []string               `json:"reference_hashes"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer"`
	Budgets    []*budget              `json:"budgets"`
	Notes      []string               `json:"notes,omitempty"`
}

// suiteResult is one row of the trajectory: every metric of every workload
// from one commit on one machine. It makes no performance claim.
type suiteResult struct {
	Schema    string          `json:"schema"`
	Input     string          `json:"input"`
	Seconds   float64         `json:"seconds_per_run"`
	Env       envInfo         `json:"env"`
	Workloads []suiteWorkload `json:"workloads"`
	Claim     *string         `json:"claim"`
}

// child runs one workload in a fresh process and returns its detail file.
func (s suite) child(self string, w workload, trace int, dir string) (*runResult, error) {
	out := filepath.Join(dir, fmt.Sprintf("%s.trace%d.json", w.name, trace))
	args := []string{
		"-workload", w.name, "-seed", fmt.Sprint(s.seed), "-seconds", fmt.Sprint(s.seconds),
		"-trace", fmt.Sprint(trace), "-out", out,
	}
	if s.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run() // waits for the child to exit
	var res runResult
	if err := readJSON(out, &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", w.name, trace, runErr)
		}
		return nil, err
	}
	return &res, nil // an incorrect run exits non-zero but still reports
}

func (s suite) run(out string) (*suiteResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(buildDir, "results", fmt.Sprintf("suite-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	sr := &suiteResult{Schema: "frame-and-job-bench/1", Seconds: s.seconds}
	for _, w := range workloads {
		fmt.Printf("\n=== %s, tracing off ===\n", w.name)
		e2e, err := s.child(self, w, 0, dir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("\n=== %s, tracing on ===\n", w.name)
		traced, err := s.child(self, w, 1, dir)
		if err != nil {
			return nil, err
		}
		sr.Env, sr.Input = e2e.Env, e2e.Input
		attempted, failed := e2e.Attempted+traced.Attempted, e2e.Failed+traced.Failed
		sr.Workloads = append(sr.Workloads, suiteWorkload{
			Name: w.name, Why: w.why,
			Correct:   e2e.Correct && traced.Correct,
			Attempted: attempted, Failed: failed, FailedFrac: float64(failed) / float64(attempted),
			Samples: e2e.Samples, RefHashes: e2e.RefHashes,
			EndToEnd: e2e.Metrics, PerLayer: traced.Metrics, Budgets: traced.Budgets,
			Notes: append(e2e.Notes, traced.Notes...),
		})
	}

	var bad []string
	for _, w := range sr.Workloads {
		if !w.Correct {
			bad = append(bad, w.Name)
		}
	}
	// Workloads that render the same query must agree on its images,
	// whatever engine they use (the two dense ones, the two sparse ones).
	byQuery := make(map[float32]suiteWorkload)
	for i, w := range sr.Workloads {
		iso := workloads[i].q.iso
		if first, ok := byQuery[iso]; !ok {
			byQuery[iso] = w
		} else if strings.Join(first.RefHashes, ",") != strings.Join(w.RefHashes, ",") {
			bad = append(bad, fmt.Sprintf("%s and %s disagree on the reference images", first.Name, w.Name))
		}
	}

	s.printSummary(sr)
	if err := writeJSON(out, sr); err != nil {
		return nil, err
	}
	fmt.Printf("\nsuite result written to %s\n", out)
	if len(bad) > 0 {
		return sr, fmt.Errorf("incorrect results: %s", strings.Join(bad, "; "))
	}
	return sr, nil
}

func (s suite) printSummary(sr *suiteResult) {
	fmt.Printf("\n=== suite summary: seed %d, %.0f s per run, %s, GOMAXPROCS %d, %s, commit %s, calibration %.1f ms ===\n",
		sr.Env.Seed, sr.Seconds, sr.Env.CPUModel, sr.Env.GOMAXPROCS, sr.Env.GoVersion, sr.Env.Commit, sr.Env.CalibrationMs)
	fmt.Printf("%-26s", "workload")
	for _, m := range endToEnd {
		fmt.Printf(" %16s", m.Name+" ["+m.Unit+"]")
	}
	fmt.Printf(" %12s %10s  %s\n", "failed_frac", "samples", "dominant layer")
	for _, w := range sr.Workloads {
		fmt.Printf("%-26s", w.Name)
		for _, m := range endToEnd {
			fmt.Printf(" %16.4f", w.EndToEnd[m.Name].Value)
		}
		dom := ""
		if len(w.Budgets) > 0 {
			dom = w.Budgets[len(w.Budgets)-1].dominant()
		}
		fmt.Printf(" %12.4f %10d  %s\n", w.FailedFrac, w.Samples, dom)
	}
}

// runAA runs the suite twice on the same code and compares every
// end-to-end metric of every workload against its bound: a benchmark whose
// own reruns disagree by more than the bound cannot gate a change by it.
// The two result files are the first rows of the trajectory.
func (s suite) runAA(outDir string) error {
	if outDir == "" {
		outDir = filepath.Join(buildDir, "results")
	}
	var runs [2]*suiteResult
	for i := range runs {
		fmt.Printf("\n##### A/A run %d of 2 #####\n", i+1)
		r, err := s.run(filepath.Join(outDir, fmt.Sprintf("aa-%d.json", i+1)))
		if err != nil {
			return err
		}
		runs[i] = r
	}
	fmt.Printf("\n=== A/A: run 2 against run 1, same code ===\n")
	fmt.Printf("%-26s %-14s %12s %12s %9s %7s\n", "workload", "metric", "run 1", "run 2", "worse by", "bound")
	var over []string
	for i, w := range runs[0].Workloads {
		for _, m := range endToEnd {
			a, b := w.EndToEnd[m.Name].Value, runs[1].Workloads[i].EndToEnd[m.Name].Value
			worse := relDiff(a, b)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			// A/A has no "better" side: disagreement either way counts.
			if math.Abs(worse) > m.Bound {
				verdict = "  DISAGREE"
				over = append(over, fmt.Sprintf("%s %s %+.1f%%", w.Name, m.Name, 100*worse))
			}
			fmt.Printf("%-26s %-14s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n", w.Name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A runs disagree beyond the bound: %s", strings.Join(over, ", "))
	}
	fmt.Println("A/A runs agree on every end-to-end metric within its bound")
	return nil
}
