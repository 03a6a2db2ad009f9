package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The machines this benchmark runs on are shared virtual machines whose
// CPU speed drifts while nothing else runs in them: one Brandes pass over
// a fixed graph took from 0.80 to 1.37 ms second by second, and its
// 30-second means spread as widely as its 1-second ones (a quartile
// spread of 0.17 of the median either way), so no run length averages the
// drift away. Each run therefore times a fixed reference kernel every
// calEvery while it measures, with the server idle, and reports its
// timings at a reference speed: every time is scaled by refPassUS over
// the kernel's time per pass at that moment, on the same clock. A change
// to the program moves the scaled times exactly as it moves the raw ones;
// a change in the machine's speed moves both the kernel and the program
// and cancels.
//
// Wall-clock times (latency, throughput, set-up) are scaled by the
// kernel's wall-clock time, and CPU times by its CPU time: a stretch in
// which the host does not run the virtual CPU at all stretches wall-clock
// times but not CPU times, and the kernel's two clocks tell the two cases
// apart.

const (
	// calEvery is the time between two calibration slices.
	calEvery = 500 * time.Millisecond
	// calPasses is the number of single-source Brandes passes a slice
	// times, from sources spread evenly over the calibration graph.
	calPasses = 16
	// refPassUS is the reference speed: the time of one pass, in µs, that
	// scaled timings are reported at. A round number; the machine the
	// baseline was taken on ran a pass in 986 to 1,591 µs of wall-clock
	// time and 900 to 1,327 µs of CPU time on average over a run.
	refPassUS = 1000.0
)

// calibrator times the reference kernel: the benchmark's own Brandes
// (which shares no code with the program) from calPasses sources of a
// fixed Barabási–Albert graph of 10,000 vertices.
type calibrator struct {
	g *graph

	mu    sync.Mutex
	last  time.Time   // end of the latest slice
	at    []time.Time // midpoint of each slice
	us    []float64   // wall-clock µs per pass of each slice
	cpuUS []float64   // CPU µs per pass of each slice
}

func newCalibrator() *calibrator {
	return &calibrator{g: barabasiAlbert(10000, 3, newRand(graphSeed, 9))}
}

// due runs a slice if calEvery has passed since the last one ended. Only
// a client with no request in flight calls it, so that the server is
// idle, or nearly, while the kernel runs.
func (c *calibrator) due() {
	c.mu.Lock()
	last := c.last
	c.mu.Unlock()
	if time.Since(last) >= calEvery {
		c.slice()
	}
}

// slice times one pass of the kernel from each of calPasses sources, on
// the wall clock and on the CPU clock of the thread that runs them.
func (c *calibrator) slice() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	t0 := time.Now()
	brandesSources(c.g, 0, c.g.n/calPasses)
	t1 := time.Now()
	cpu := threadCPU() - cpu0
	d := t1.Sub(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = t1
	c.at = append(c.at, t0.Add(d/2))
	c.us = append(c.us, float64(d)/float64(time.Microsecond)/calPasses)
	c.cpuUS = append(c.cpuUS, float64(cpu)/float64(time.Microsecond)/calPasses)
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does
// not name.
const rusageThread = 1

// threadCPU returns the user plus system CPU time of the calling thread.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// passUS returns the kernel's wall-clock time per pass at t, interpolated
// linearly between the slices around it (the nearest one outside their
// range).
func (c *calibrator) passUS(t time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t) })
	switch {
	case len(c.at) == 0:
		return refPassUS
	case i == 0:
		return c.us[0]
	case i == len(c.at):
		return c.us[i-1]
	}
	f := float64(t.Sub(c.at[i-1])) / float64(c.at[i].Sub(c.at[i-1]))
	return c.us[i-1] + f*(c.us[i]-c.us[i-1])
}

// scale returns the factor that brings a wall-clock time taken around t
// to the reference speed.
func (c *calibrator) scale(t time.Time) float64 { return refPassUS / c.passUS(t) }

// calWindow is what the slices taken over a measured window say: the mean
// time per pass on each clock, which is the time average since the
// slices are evenly spaced, and the wall-clock time they took.
type calWindow struct {
	wallUS, cpuUS float64
	spent         time.Duration
}

// within summarises the slices taken in [from, to].
func (c *calibrator) within(from, to time.Time) calWindow {
	c.mu.Lock()
	defer c.mu.Unlock()
	var wall, cpu float64
	var n int
	for i, t := range c.at {
		if !t.Before(from) && !t.After(to) {
			wall += c.us[i]
			cpu += c.cpuUS[i]
			n++
		}
	}
	if n == 0 {
		return calWindow{wallUS: refPassUS, cpuUS: refPassUS}
	}
	return calWindow{
		wallUS: wall / float64(n),
		cpuUS:  cpu / float64(n),
		spent:  time.Duration(wall * calPasses * float64(time.Microsecond)),
	}
}
