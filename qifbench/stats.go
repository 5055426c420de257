package main

import (
	"bufio"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedMS returns the durations in milliseconds, ascending.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// median of an ascending slice; NaN when empty.
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf sorts a copy of v and returns its median.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s)
}

// p99 of an ascending slice.
func p99(s []float64) float64 { return s[len(s)*99/100] }

// tail returns the highest percentile of an ascending slice that still has
// at least ten samples above it, with that percentile. Fewer than eleven
// samples report the maximum.
func tail(s []float64) (value, pct float64) {
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	k := n - 11
	if k < 0 {
		k = n - 1
	}
	return s[k], 100 * float64(k+1) / float64(n)
}

// tailWindow is the number of operations in one tail window. A run with
// at least two windows' worth reports the median over its consecutive
// windows of each window's tail: a burst of host contention then moves one
// window's figure instead of the run's, which keeps the tail steady enough
// to compare runs. Shorter runs take the tail over all their samples.
const tailWindow = 100

// runTail returns the tail latency of a run's ok operations, given in the
// order they were due, with the percentile it sits at and the number of
// windows it is the median of.
func runTail(lat []time.Duration) (value, pct float64, windows int) {
	if len(lat) < 2*tailWindow {
		v, p := tail(sortedMS(lat))
		return v, p, 1
	}
	var vals []float64
	for i := 0; i+tailWindow <= len(lat); i += tailWindow {
		v, p := tail(sortedMS(lat[i : i+tailWindow]))
		vals, pct = append(vals, v), p
	}
	return medianOf(vals), pct, len(vals)
}

// rateWindow is how many consecutive closed-loop operations one
// throughput sample covers. Closed-loop ops_per_s is the median over
// windows, so a burst of slow operations moves one window's figure.
const rateWindow = 8

// closedRate returns the median over consecutive windows of rateWindow
// operations of the window's operations per second of operation time.
func closedRate(lat []time.Duration) float64 {
	n := rateWindow
	if len(lat) < 2*rateWindow {
		n = len(lat)
	}
	var rates []float64
	for i := 0; i+n <= len(lat); i += n {
		var sum time.Duration
		for _, d := range lat[i : i+n] {
			sum += d
		}
		rates = append(rates, float64(n)/sum.Seconds())
	}
	return medianOf(rates)
}

// quartiles computes Python's statistics.quantiles(v, n=4) (the default
// exclusive method), so spreads printed here match what a driver computing
// them in Python sees.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// cpuTime is the process's user+system CPU time so far (all threads).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS collects garbage, returns the freed memory to the OS, and
// resets the kernel's high-water mark, so VmHWM afterwards measures the
// timed loop rather than input generation and set-up. Without Linux's
// clear_refs it leaves the mark as it is.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's VmHWM from /proc/self/status, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			break
		}
		return kb / 1024
	}
	return math.NaN()
}
