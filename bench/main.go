// Command bench is the repository's one benchmark: it generates a seeded
// on-disk dataset, drives the production public APIs of every layer
// (dataset, mcubes, render, isoviz, core, dist, jobd) through four named
// workloads, checks every result against a reference image, and reports
// end-to-end metrics (tracing off) or per-layer metrics and a frame budget
// (tracing on). See README.md for the metric glossary.
//
//	bash bench/run.sh --workload iso-dense-core --seed 1 --seconds 15 --trace 0
//	cd bench && go run .            # whole suite, both passes, one result file
//	cd bench && go run . -aa        # the suite twice, compared against the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// buildDir holds everything a run writes, relative to the working
// directory (the checkout root under the driver): datasets of the run in
// progress, result files and traces. The root .gitignore names it.
const buildDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs the whole suite, each workload in a fresh process")
		seed    = flag.Int64("seed", 2002, "seed of the order in which views are requested")
		seconds = flag.Float64("seconds", 15, "how long each run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and the frame budget, tracing on")
		out     = flag.String("out", "", "result file (default under "+buildDir+"/results/)")
		tiny    = flag.Bool("tiny", false, "33^3 grid, two sessions: a smoke run, not a measurement")
		aa      = flag.Bool("aa", false, "run the suite twice on the same code and compare every end-to-end metric against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	secondsSet := false
	flag.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if *tiny && !secondsSet {
		*seconds = 0
	}

	if *name == "" {
		s := suite{seed: *seed, seconds: *seconds, tiny: *tiny}
		var err error
		if *aa {
			err = s.runAA(*out)
		} else {
			if *out == "" {
				*out = filepath.Join(buildDir, "results", "suite.json")
			}
			_, err = s.run(*out)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if *aa {
		fatal(fmt.Errorf("-aa compares whole suites; drop -workload"))
	}

	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	in := fullInput()
	if *tiny {
		in = tinyInput()
	}
	if *out == "" {
		*out = filepath.Join(buildDir, "results", fmt.Sprintf("%s.trace%d.seed%d.json", w.name, *trace, *seed))
	}
	res, err := runWorkload(runConfig{
		w: w, in: in, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scratch: filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())),
		log:     os.Stdout,
	})
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(*out, res); err != nil {
		fatal(err)
	}
	fmt.Printf("result written to %s\n", *out)
	fmt.Println(res.finalLine())
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
