package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// environment is recorded with every result, so a number can be traced to
// the host, toolchain and source it came from.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the git revision when the tree is a checkout; SourceHash
	// identifies the Go sources the daemon was built from either way.
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"run_seconds"`
	Trace      bool   `json:"trace"`
	// Samples counts the measured requests behind each reported figure.
	Samples map[string]int `json:"samples"`
	// SliceRates is the OK completions of each one-second slice of the
	// measured window (untraced runs).
	SliceRates []int `json:"slice_rates,omitempty"`
	// CalibrationMS times a fixed CPU task before and after the run (see
	// calibrate).
	CalibrationMS []float64 `json:"calibration_ms"`
	// RSSAtRequest is the measured request of each round whose answer the
	// peak RSS was read after.
	RSSAtRequest []int `json:"rss_at_request,omitempty"`
	// SetupS is every boot's set-up time; setup_s is their median.
	SetupS []float64 `json:"setup_s,omitempty"`
	// Outcomes breaks attempted requests down by failure kind.
	Outcomes map[string]int `json:"outcomes"`
}

func newEnvironment(root, workload string, seed int64, seconds int, trace bool) environment {
	commit := os.Getenv("APTBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit,
		SourceHash: sourceHash(root),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Samples:    map[string]int{},
	}
}

// calibrate times a fixed single-threaded task, SHA-256 over 32 MiB, three
// times and returns the median in milliseconds.  It records how fast one
// CPU ran around the run; on a shared host the closed loop, which wakes
// processes across CPUs all the time, slows far more than this figure does.
func calibrate() float64 {
	buf := make([]byte, 32<<20)
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		ms = append(ms, float64(time.Since(t0).Microseconds())/1e3)
	}
	return median(ms)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests go.mod and every .go file under cmd/ and internal/
// (paths and contents, in sorted order).
func sourceHash(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // a missing tree hashes as empty
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
