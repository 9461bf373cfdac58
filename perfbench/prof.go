package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// profile is a CPU profile aggregated by package: the share of sampled
// self time in each piranha/internal package, the Go runtime, and
// everything else.
type profile struct {
	shares map[string]float64
}

// profileRuns CPU-profiles untraced runs of the workload, at least one
// and at least profileMinRun of them, and aggregates the profile with
// the toolchain's own go tool pprof.
func profileRuns(dir string, run func() error) (profile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return profile{}, fmt.Errorf("profile dir: %w", err)
	}
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return profile{}, fmt.Errorf("profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return profile{}, fmt.Errorf("profile: %w", err)
	}
	t0 := time.Now()
	var runErr error
	for runs := 0; runErr == nil && (runs == 0 || time.Since(t0) < profileMinRun); runs++ {
		runErr = run()
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return profile{}, fmt.Errorf("profile: %w", err)
	}
	if runErr != nil {
		return profile{}, fmt.Errorf("profiled run: %w", runErr)
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", path).Output()
	if err != nil {
		return profile{}, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(out)
}

// parseTop sums the flat column of `go tool pprof -top -unit=ms` output
// by package.
func parseTop(out []byte) (profile, error) {
	flat := map[string]float64{}
	total := 0.0
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return profile{}, fmt.Errorf("pprof line %q: %w", line, err)
		}
		flat[profPackage(strings.Join(f[5:], " "))] += ms
		total += ms
	}
	if total == 0 {
		return profile{}, fmt.Errorf("go tool pprof: empty profile")
	}
	p := profile{shares: map[string]float64{}}
	for _, pkg := range profPackages {
		p.shares[pkg] = flat[pkg] / total
	}
	return p, nil
}

// profPackage maps a profiled function name to its reported package.
func profPackage(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "piranha/internal/"); ok {
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		for _, p := range profPackages {
			if p == pkg {
				return pkg
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") {
		return "runtime"
	}
	return "other"
}
