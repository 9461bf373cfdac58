package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// sample is the host cost of one measured run.
type sample struct {
	hostS   float64 // wall time of the timed call, scaled to the reference host
	wallS   float64 // wall time as measured
	work    float64 // simulated transactions, or explored states
	allocB  float64 // bytes allocated during the call
	peakRSS float64 // peak resident bytes during the call
}

// measure runs fn once under the host meters. The heap is collected and
// returned to the OS first, so each run starts from the same footprint.
// The wall time is scaled to the reference host by calibrations on
// either side of the run.
func measure(fn func() (work float64, err error)) (sample, error) {
	cal0 := calibrate()
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	work, err := fn()
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	s := sample{
		wallS:   dt.Seconds(),
		work:    work,
		allocB:  float64(m1.TotalAlloc - m0.TotalAlloc),
		peakRSS: peakRSS(),
	}
	s.hostS = s.wallS * hostScale(cal0, calibrate())
	return s, err
}

// runEndToEnd makes the invocation's measured runs and reports the
// end-to-end metrics as medians over them.
func runEndToEnd(w *workloadDef, env runEnv) (result, report, error) {
	setupS, err := medianSetup(w, env.seed)
	if err != nil {
		return result{}, report{}, err
	}
	c := newChecker(w, env.seed)
	runs := env.runs(w)
	samples := c.measureRuns(runs)
	c.rep.Samples = len(samples)
	c.rep.SetupSamples = w.setupReps
	for _, s := range samples {
		c.rep.RunHostS = append(c.rep.RunHostS, s.hostS)
		c.rep.RunWallS = append(c.rep.RunWallS, s.wallS)
	}
	return endToEndResult(samples, runs, setupS), c.rep, nil
}

// measureRuns makes n checked runs and returns the samples of those that
// passed; each failure is recorded in the report, and none stops the
// loop.
func (c *checker) measureRuns(n int) []sample {
	var samples []sample
	for i := 0; i < n; i++ {
		s, err := c.run()
		if err != nil {
			c.rep.Failures = append(c.rep.Failures, err.Error())
			continue
		}
		samples = append(samples, s)
	}
	return samples
}

// endToEndResult reduces the passing samples of attempted runs to the
// end-to-end metrics.
func endToEndResult(samples []sample, attempted int, setupS float64) result {
	failed := attempted - len(samples)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	perWork := make([]float64, 0, len(samples))
	var alloc, rss []float64
	for _, s := range samples {
		perWork = append(perWork, s.hostS*1e6/s.work)
		alloc = append(alloc, s.allocB/1e6)
		rss = append(rss, s.peakRSS/1e6)
	}
	cost := lowerQuartile(perWork)
	res.Metrics["host_us_per_sim_tx"] = metric{cost, "us"}
	res.Metrics["host_us_per_state"] = metric{cost, "us"}
	res.Metrics["setup_s"] = metric{setupS, "s"}
	res.Metrics["alloc_mb"] = metric{median(alloc), "MB"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	res.Metrics["fail_frac"] = metric{failFrac(failed, attempted), "frac"}
	return res
}

// failFrac is the rule-of-succession failure estimate (failed+1) /
// (attempted+2): never zero, and equal to 1/(attempted+2) on a clean
// invocation.
func failFrac(failed, attempted int) float64 {
	return float64(failed+1) / float64(attempted+2)
}

// medianSetup times the workload's set-up setupReps times and returns
// the median in reference-host seconds.
func medianSetup(w *workloadDef, seed uint64) (float64, error) {
	cal0 := calibrate()
	ts := make([]float64, 0, w.setupReps)
	for i := 0; i < w.setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		err := w.setup(seed)
		dt := time.Since(t0)
		if err != nil {
			return 0, err
		}
		ts = append(ts, dt.Seconds())
	}
	return median(ts) * hostScale(cal0, calibrate()), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerQuartile returns the first quartile of xs by the exclusive
// method (Python's statistics.quantiles default), or the minimum when
// there are too few values to interpolate. Interference on a shared host
// only ever slows a run, so the lower quartile of the calibrated run
// times is the steadiest estimate of the undisturbed cost.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(len(s)+1) / 4 // 1-based rank
	i := int(pos)
	if i < 1 {
		return s[0]
	}
	if i >= len(s) {
		return s[len(s)-1]
	}
	return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process (Linux clear_refs). Where it cannot, peakRSS reports the
// process-lifetime peak instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; see above
}

// peakRSS returns the process's resident-set high-water mark in bytes.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := bytes.Fields(line); len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}
