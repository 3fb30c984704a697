package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envInfo identifies the machine and build a result came from, so rows of
// the trajectory taken on different boxes are recognisable as such.
type envInfo struct {
	Seed          int64   `json:"seed"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	CalibrationMs float64 `json:"calibration_ms"`
}

func readEnv(seed int64) envInfo {
	return envInfo{
		Seed:          seed,
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		Commit:        commit(),
		CalibrationMs: calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// commit reads HEAD of the repository the bench runs in — the working
// directory or, when run from bench/, its parent — straight from .git, so no
// process is started and nothing outside the checkout is read. A checkout
// that is not a repository (the driver's) reports "unknown".
func commit() string {
	for _, root := range []string{".", ".."} {
		git := filepath.Join(root, ".git")
		head, err := os.ReadFile(filepath.Join(git, "HEAD"))
		if err != nil {
			continue
		}
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref // detached HEAD: the hash itself
		}
		if hash, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
			return strings.TrimSpace(string(hash))
		}
		if packed, err := os.ReadFile(filepath.Join(git, "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if hash, ok := strings.CutSuffix(line, " "+ref); ok {
					return hash
				}
			}
		}
	}
	return "unknown"
}

// calibrate times a fixed pure-Go integer/float loop: the same number on
// two result files says their timings are comparable, a different one says
// the machines (or their load) differ. Best of three.
func calibrate() float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x, f := uint64(88172645463325252), 1.0
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f = f*1.0000001 + float64(x&1)
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if f < 0 { // keeps the loop's result live
			ms = 0
		}
		if rep == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
