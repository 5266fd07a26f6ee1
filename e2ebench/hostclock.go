package main

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"mrapid/internal/sim"
)

// runtime/metrics series the host clock reads.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mLive     = "/gc/heap/live:bytes"
	mCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mGCAssist = "/cpu/classes/gc/mark/assist:cpu-seconds"
)

// hostSample is a point-in-time reading of the process's host clocks.
type hostSample struct {
	wall   time.Time
	cpu    time.Duration // user + system CPU of the whole process
	allocs uint64        // cumulative heap bytes allocated
	cycles uint64        // completed GC cycles
	gcCPU  float64       // runtime's estimate of GC CPU seconds
	assist float64       // the part of gcCPU spent in allocation assists
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readHost() hostSample {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mCycles}, {Name: mGCCPU}, {Name: mGCAssist}}
	metrics.Read(s)
	return hostSample{
		wall:   time.Now(),
		cpu:    processCPU(),
		allocs: s[0].Value.Uint64(),
		cycles: s[1].Value.Uint64(),
		gcCPU:  s[2].Value.Float64(),
		assist: s[3].Value.Float64(),
	}
}

// clock accumulates one iteration's host cost, split into set-up (cluster
// assembly, input generation, AM-pool warm-up) and the measured phase
// (driving the submissions to completion). Output checks run outside both.
type clock struct {
	setup  time.Duration
	host   time.Duration
	cpu    time.Duration
	allocs uint64
	cycles uint64
	gcCPU  float64
	bgGC   float64 // GC CPU seconds outside assists: background workers and pauses
	events uint64  // engine events fired in measured phases

	// Wall and CPU nanoseconds of each calibration kernel run after a
	// measured phase.
	kernelWall, kernelCPU []float64
}

// setupPhase runs fn and charges its wall time to set-up.
func (c *clock) setupPhase(fn func() error) error {
	t := time.Now()
	err := fn()
	c.setup += time.Since(t)
	return err
}

// measured runs fn and charges its wall time, CPU time, heap allocation,
// GC activity and the engine events it fired to the measured phase.
// Collection is left to the runtime, so the measured phase pays for the
// garbage it makes as a real run would. fn runs under the CPU-profile label
// measuredLabel, which the goroutines it starts inherit, so a traced run's
// per-package shares leave set-up and checks out.
func (c *clock) measured(eng *sim.Engine, fn func()) {
	fired := eng.Fired()
	a := readHost()
	pprof.Do(context.Background(), pprof.Labels(measuredLabel...), func(context.Context) { fn() })
	b := readHost()
	c.events += eng.Fired() - fired
	c.host += b.wall.Sub(a.wall)
	c.cpu += b.cpu - a.cpu
	c.allocs += b.allocs - a.allocs
	c.cycles += b.cycles - a.cycles
	c.gcCPU += b.gcCPU - a.gcCPU
	c.bgGC += (b.gcCPU - b.assist) - (a.gcCPU - a.assist)
	c.calibrate()
}

// calibrate times one run of calibrationKernel.
func (c *clock) calibrate() {
	cpu, wall := processCPU(), time.Now()
	calibrationKernel()
	c.kernelWall = append(c.kernelWall, float64(time.Since(wall)))
	c.kernelCPU = append(c.kernelCPU, float64(processCPU()-cpu))
}

// calibrationRef is calibrationKernel's median wall and CPU time on the
// reference machine, a shared 2-vCPU virtual machine running Go 1.24 with
// GOMAXPROCS=1.
const calibrationRef = 720 * time.Microsecond

// The calibration kernel's input, 2048 ten-byte keys drawn once from a fixed
// seed, and its scratch space, allocated once.
var (
	calibrationKeys   = calibrationInput()
	calibrationWork   = make([][10]byte, len(calibrationKeys))
	calibrationCounts = make(map[[3]byte]int, 26*26*26)
)

func calibrationInput() [][10]byte {
	rng := rand.New(rand.NewSource(1))
	keys := make([][10]byte, 2048)
	for i := range keys {
		for j := range keys[i] {
			keys[i][j] = byte('a' + rng.Intn(26))
		}
	}
	return keys
}

// calibrationKernel is fixed work shaped like the simulator's data plane: it
// sorts the calibration keys and counts their three-byte prefixes in a map.
// It runs no simulator code, and it neither allocates nor writes a pointer,
// so the state the measured phase leaves in the heap cannot reach it: it
// starts no GC cycle, pays no allocation assist and takes no write barrier
// while a cycle is marking. Only the machine's speed moves its time. Each
// iteration's host figures are scaled by calibrationRef ÷ its median time
// after that iteration's measured phases, which takes out the slow and fast
// periods of a shared machine.
func calibrationKernel() {
	copy(calibrationWork, calibrationKeys)
	slices.SortFunc(calibrationWork, func(a, b [10]byte) int { return bytes.Compare(a[:], b[:]) })
	clear(calibrationCounts)
	for _, k := range calibrationWork {
		calibrationCounts[[3]byte(k[:3])]++
	}
}

// settle runs one full GC cycle, untimed, and counts the live heap it finds
// towards the peak. A workload calls it once per iteration, after its last
// measured phase, while that simulation is still reachable: the retained
// state at the end of a run is then always sampled, instead of only
// whatever the runtime's last natural cycle happened to catch.
func (c *clock) settle() {
	runtime.GC()
	notePeak()
}

// heapPeak tracks the largest live heap observed after any GC cycle. A
// sentinel object re-arms its own finalizer, which the runtime runs once
// after every cycle that finds it unreachable.
var heapPeak atomic.Uint64

type gcSentinel struct{ _ [16]byte }

func armHeapPeak() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		notePeak()
		armHeapPeak()
	})
}

// notePeak raises heapPeak to the live heap the last GC cycle marked.
func notePeak() {
	live := []metrics.Sample{{Name: mLive}}
	metrics.Read(live)
	v := live[0].Value.Uint64()
	for {
		old := heapPeak.Load()
		if v <= old || heapPeak.CompareAndSwap(old, v) {
			return
		}
	}
}
