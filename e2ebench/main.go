// Command e2ebench is the repository's end-to-end benchmark. It drives four
// short-job workloads through the simulator's public constructors and
// reports each on both clocks: the virtual clock gives the paper's job
// latency, makespan and slot-seconds; the host clock says how fast the
// simulator produces them.
//
// Run it from the repository root:
//
//	bash e2ebench/run.sh --workload tenant-stream --seed 1 --seconds 20 --trace 0
//
// A run repeats the workload on fresh simulations until --seconds have
// passed. The first iteration's outputs are checked against references, and
// every iteration of a seed must reproduce the same virtual numbers and
// output hashes bit for bit, traced or not. --trace 0 reports the end-to-end metrics from
// untraced iterations. --trace 1 alternates untraced and traced iterations
// and reports the per-layer metrics, writing the spans and the per-layer
// table under --out. The last line of standard output is one JSON object.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// hostWorkers pins GOMAXPROCS and the runtime's host-side map/reduce
// workers to one on every run. On a small shared machine a second thread
// makes wall time depend on what the neighbours are doing — a probe on two
// shared vCPUs measured a 22% run-to-run spread of host_s with two threads
// against 9% with one — and one thread keeps wall time close to CPU time.
const hostWorkers = 1

// workload is one benchmark workload.
type workload interface {
	// prepare computes reference answers, outside every timed phase.
	prepare() error
	// iterate runs the workload once on fresh simulations, charging set-up
	// and the measured phase to c and the traced seams to p (nil when
	// untraced). With verify, every output is checked against its
	// reference; later iterations need only hash theirs, since the
	// determinism guard holds them to the verified iteration's hashes.
	iterate(c *clock, p *probe, verify bool) (*virtual, error)
}

var workloadNames = []string{"wordcount-sweep", "terasort-sweep", "tenant-stream", "query-repeat"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "wordcount-sweep":
		return wordCountSweep(seed), nil
	case "terasort-sweep":
		return teraSortSweep(seed), nil
	case "tenant-stream":
		return newTenantStream(seed), nil
	case "query-repeat":
		return newQueryRepeat(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reports against:
// an untraced run prints every end_to_end metric, a traced run every
// per_layer one.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// iteration is one run of the workload with its host-clock readings.
type iteration struct {
	traced bool
	clock  clock
	peak   uint64 // largest live heap after a GC cycle, bytes
	v      *virtual
	probe  *probe
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := flag.Int64("seed", 1, "seed the workload's inputs and arrivals are drawn from")
	seconds := flag.Int("seconds", 10, "host seconds to keep repeating the workload for")
	traceRun := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
	out := flag.String("out", filepath.Join("e2ebench", "out"), "directory for fingerprints, spans and the per-layer table")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	flag.Parse()
	if *seconds < 1 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed)
	var spec *benchSpec
	if err == nil {
		spec, err = loadSpec(*specPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(hostWorkers)
	armHeapPeak()
	res, err := run(w, spec, *name, *seed, time.Duration(*seconds)*time.Second, *traceRun == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// run repeats the workload for the time budget and reduces the iterations
// to the reported metrics. The first iteration warms the input caches and
// the heap, and has its outputs checked against references; it is left out
// of the host figures.
func run(w workload, spec *benchSpec, name string, seed int64, budget time.Duration, traced bool, outDir string) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	if err := w.prepare(); err != nil {
		return res, err
	}
	minIters := 4
	if traced {
		minIters = 5 // warm-up, then at least two untraced and two traced
	}
	var iters []*iteration
	profile := map[string]float64{} // package → measured-phase CPU seconds of traced iterations
	deadline := time.Now().Add(budget)
	for len(iters) < minIters || time.Now().Before(deadline) {
		it := &iteration{traced: traced && len(iters)%2 == 0 && len(iters) > 0}
		var prof bytes.Buffer
		if it.traced {
			it.probe = newProbe()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return res, err
			}
		}
		heapPeak.Store(0)
		v, err := w.iterate(&it.clock, it.probe, len(iters) == 0)
		if it.traced {
			pprof.StopCPUProfile()
			if err == nil {
				err = packageShares(prof.Bytes(), profile)
			}
		}
		if err != nil {
			return res, err
		}
		it.peak = heapPeak.Load()
		it.v = v
		res.Attempted += v.attempted
		res.Failed += v.failed
		iters = append(iters, it)
	}

	first := iters[0].v
	for _, f := range first.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	res.Correct = res.Failed == 0
	fp := first.fingerprint()
	for i, it := range iters[1:] {
		if got := it.v.fingerprint(); got != fp {
			res.Correct = false
			return res, fmt.Errorf("determinism: iteration %d (traced=%v) reproduced different virtual numbers or outputs than iteration 0", i+1, it.traced)
		}
	}
	if err := checkFingerprint(outDir, name, seed, fp); err != nil {
		res.Correct = false
		return res, err
	}

	var untracedIters, tracedIters []*iteration
	for _, it := range iters[1:] {
		if it.traced {
			tracedIters = append(tracedIters, it)
		} else {
			untracedIters = append(untracedIters, it)
		}
	}
	host := func(its []*iteration, f func(*iteration) float64) float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = f(it)
		}
		return median(xs)
	}
	// Host times are scaled to the reference machine's speed: each
	// iteration's by the calibration kernel's median time after its own
	// measured phases, which follows the slow and fast periods within a run.
	ref := float64(calibrationRef)
	scaled := func(d func(*iteration) time.Duration, kernel func(*iteration) []float64) float64 {
		return host(untracedIters, func(it *iteration) float64 { return d(it).Seconds() * ref / median(kernel(it)) })
	}
	wallKernel := func(it *iteration) []float64 { return it.clock.kernelWall }
	cpuKernel := func(it *iteration) []float64 { return it.clock.kernelCPU }
	rawSetup := host(untracedIters, func(it *iteration) float64 { return it.clock.setup.Seconds() })
	rawHost := host(untracedIters, func(it *iteration) float64 { return it.clock.host.Seconds() })
	rawCPU := host(untracedIters, func(it *iteration) float64 { return it.clock.cpu.Seconds() })
	kernelWall := host(untracedIters, func(it *iteration) float64 { return median(it.clock.kernelWall) })
	kernelCPU := host(untracedIters, func(it *iteration) float64 { return median(it.clock.kernelCPU) })
	const mb = 1 << 20
	all := map[string]float64{
		"setup_s":        scaled(func(it *iteration) time.Duration { return it.clock.setup }, wallKernel),
		"host_s":         scaled(func(it *iteration) time.Duration { return it.clock.host }, wallKernel),
		"cpu_s":          scaled(func(it *iteration) time.Duration { return it.clock.cpu }, cpuKernel),
		"alloc_mb":       host(untracedIters, func(it *iteration) float64 { return float64(it.clock.allocs) / mb }),
		"peak_heap_mb":   host(untracedIters, func(it *iteration) float64 { return float64(it.peak) / mb }),
		"latency_p50_vs": percentile(first.latencies, 0.5),
		"latency_p90_vs": percentile(first.latencies, 0.9),
		"makespan_vs":    first.makespan,
		"slot_s":         first.slot,
		"failed_ratio":   ratio(float64(first.failed), float64(first.attempted)),
		"hadoop_vs":      mean(first.perMode["hadoop"]),
		"uber_vs":        mean(first.perMode["uber"]),
		"dplus_vs":       mean(first.perMode["dplus"]),
		"uplus_vs":       mean(first.perMode["uplus"]),
		"sim.events":     float64(iters[0].clock.events),
		"gc.cycles":      host(untracedIters, func(it *iteration) float64 { return float64(it.clock.cycles) }),
		"gc.cpu_share": host(untracedIters, func(it *iteration) float64 {
			return ratio(it.clock.gcCPU, it.clock.cpu.Seconds())
		}),
	}
	all["sim.host_ns_per_event"] = ratio(all["host_s"]*1e9, all["sim.events"])
	fmt.Printf("%s seed %d: %d iterations (%d traced, first left out of host figures), %d submissions each (%d latency samples), failed_ratio %g\n",
		name, seed, len(iters), len(tracedIters), first.attempted, len(first.latencies), all["failed_ratio"])
	fmt.Printf("unscaled: setup %.6g s, host %.6g s, cpu %.6g s; calibration kernel %.4g µs wall, %.4g µs CPU (reference %.4g µs)\n",
		rawSetup, rawHost, rawCPU, kernelWall/1e3, kernelCPU/1e3, ref/1e3)

	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
		layers := map[string][]float64{}
		for _, it := range tracedIters {
			for k, v := range it.probe.layers() {
				layers[k] = append(layers[k], v)
			}
		}
		for k, vs := range layers {
			all[k] = median(vs)
		}
		// The runtime's background GC workers carry no profile labels, so
		// their measured-phase CPU comes from the runtime's own accounting.
		for _, it := range tracedIters {
			profile["gc"] += it.clock.bgGC
		}
		var total float64
		for _, secs := range profile {
			total += secs
		}
		for pkg, secs := range profile {
			all[pkg+".host_share"] = ratio(secs, total)
		}
		all["trace.overhead_ratio"] = ratio(
			host(tracedIters, func(it *iteration) float64 { return it.clock.host.Seconds() }), rawHost)
		if err := writeTraceOutputs(outDir, name, seed, all, tracedIters[len(tracedIters)-1].probe); err != nil {
			return res, err
		}
	}
	for _, d := range defs {
		v, ok := all[d.Name]
		if !ok && strings.HasSuffix(d.Name, ".host_share") {
			ok = true // no profile sample landed in that package
		}
		if !ok {
			res.Correct = false
			return res, fmt.Errorf("%s: metric %q is not one this benchmark measures", name, d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Printf("  %-30s %14.6g %s\n", d.Name, v, d.Unit)
	}
	return res, nil
}

// checkFingerprint makes the determinism guard span processes: the first run
// of a (workload, seed) with this build records its virtual fingerprint, and
// every later run of the same build — traced or not — must match it.
func checkFingerprint(outDir, name string, seed int64, fp string) error {
	build, err := buildID()
	if err != nil {
		return err
	}
	dir := filepath.Join(outDir, "fingerprints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", name, seed, build))
	old, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(old) != fp {
			return fmt.Errorf("determinism: %s seed %d produced virtual fingerprint %s, an earlier run of this build produced %s", name, seed, fp, old)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		return writeFileAtomic(path, []byte(fp))
	default:
		return err
	}
}

// buildID hashes the running executable, so fingerprints from an older
// build of the simulator are never compared against a newer one.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16], nil
}

// writeTraceOutputs writes the traced run's full per-layer table (every
// package's CPU share included) and the spans of its last traced iteration.
func writeTraceOutputs(outDir, name string, seed int64, all map[string]float64, p *probe) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	table, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := writeFileAtomic(base+"-layers.json", append(table, '\n')); err != nil {
		return err
	}
	spans, err := json.Marshal(p.spanLogs)
	if err != nil {
		return err
	}
	return writeFileAtomic(base+"-spans.json", spans)
}

// writeFileAtomic replaces path in one rename, so a concurrent reader sees
// the old file or the new one, never a partial write.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}
