package main

import "time"

// The host this benchmark runs on is shared: the same run's wall time
// varies by tens of percent with what its neighbours do, and the CPU time
// with it. The end-to-end times are therefore normalised by a fixed
// calibration kernel timed just before and just after each run: a
// timing is reported as the time the run would have taken on a host
// where the kernel takes refCalibS. The kernel uses no simulator code, so
// a change to the simulator moves the reported time in full.

// refCalibS is the calibration kernel's median time on the reference
// host (2-CPU x86-64, Go 1.24).
const refCalibS = 0.11

var calibSink uint64

// calibrate times the calibration kernel: pseudo-random read-modify-
// writes over a 32 MB array with every eighth step through a map, the
// cache- and allocation-bound mix the simulator's hot paths share.
func calibrate() float64 {
	buf := make([]uint64, 4<<20)
	m := make(map[uint64]uint64, 1<<14)
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 3_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(len(buf))
		buf[j] += x
		if i%8 == 0 {
			m[x%(1<<14)] += buf[(j*31)%uint64(len(buf))]
		}
	}
	calibSink += buf[7] + m[3]
	return time.Since(t0).Seconds()
}

// hostScale returns the factor that converts a time measured between
// two calibrations into reference-host time.
func hostScale(before, after float64) float64 {
	return refCalibS / ((before + after) / 2)
}
