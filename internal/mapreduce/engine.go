package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// Runtime bundles the substrate a job executes on. One Runtime corresponds
// to one simulated cluster with its filesystem and resource manager.
type Runtime struct {
	Eng     *sim.Engine
	Cluster *topology.Cluster
	DFS     *hdfs.DFS
	RM      *yarn.RM
	Params  costmodel.Params

	// MapCache, when non-nil, memoizes pure ExecMap results across runs
	// over byte-identical inputs (see MapCache). It changes host CPU time
	// only, never simulated results.
	MapCache *MapCache

	// Faults, when non-nil, injects deterministic task-attempt failures;
	// ApplicationMasters retry up to Params.MaxTaskAttempts.
	Faults *FaultInjector

	// Trace, when non-nil, records task lifecycle events and spans.
	Trace *trace.Log

	// Reg, when non-nil, receives task-duration and shuffle-byte
	// histograms and task counters. It must be thread-safe: completions
	// run on the engine goroutine, but nothing stops future callers from
	// observing from worker-pool tasks.
	Reg *metrics.Registry

	// Intermediates, when non-nil, holds intra-query intermediate tables
	// outside HDFS (see IntermediateStore): jobs marked
	// spec.IntermediateOutput commit reduce outputs there, and Splits /
	// ReadSplit resolve inputs against it before falling through to HDFS.
	Intermediates *IntermediateStore

	// Shuffle, when non-nil, is the per-node shuffle service
	// (internal/shuffle): AMs register committed map outputs with it and
	// reducers fetch one consolidated result per (node, partition) through
	// it instead of one FetchPartition per (map, partition). Nil keeps the
	// stock per-map shuffle.
	Shuffle ShuffleProvider

	// shuffleInFlight is the byte-count of shuffle fetches currently
	// running (see ShuffleBytesInFlight).
	shuffleInFlight int64

	// Workers opts into parallel host-side execution of the pure map and
	// reduce computations: 0 or 1 keeps the fully sequential path, a value
	// > 1 sizes a bounded worker pool of real OS threads, and a negative
	// value asks for DefaultWorkers (GOMAXPROCS). The virtual timeline is
	// byte-for-byte identical across all settings — the pool changes host
	// wall-clock time only. Set before the first task runs.
	Workers int

	pool *WorkerPool

	// h caches pre-resolved metric handles for the per-attempt and
	// per-fetch paths; see handles().
	h rtHandles
}

// rtHandles holds the runtime's pre-resolved metric handles: the four
// kind×outcome task-attempt counters, the two task-duration histograms, and
// the transport/kind-keyed shuffle series (bound on first sight of each
// label value). Reg is a public field assigned after construction, so
// handles() rebinds whenever it changes.
type rtHandles struct {
	src           *metrics.Registry
	mapOK         metrics.Counter
	mapFailed     metrics.Counter
	reduceOK      metrics.Counter
	reduceFailed  metrics.Counter
	mapSeconds    metrics.Observer
	reduceSeconds metrics.Observer
	shuffleBytes  map[string]metrics.Observer // by transport
	shuffleFetch  map[string]metrics.Counter  // by kind+transport
}

func (rt *Runtime) handles() *rtHandles {
	if rt.h.src != rt.Reg {
		rt.h = rtHandles{
			src:           rt.Reg,
			mapOK:         rt.Reg.CounterHandle("mapreduce_task_attempts_total", "kind", "map", "outcome", "ok"),
			mapFailed:     rt.Reg.CounterHandle("mapreduce_task_attempts_total", "kind", "map", "outcome", "failed"),
			reduceOK:      rt.Reg.CounterHandle("mapreduce_task_attempts_total", "kind", "reduce", "outcome", "ok"),
			reduceFailed:  rt.Reg.CounterHandle("mapreduce_task_attempts_total", "kind", "reduce", "outcome", "failed"),
			mapSeconds:    rt.Reg.HistogramHandle("mapreduce_task_seconds", "kind", "map"),
			reduceSeconds: rt.Reg.HistogramHandle("mapreduce_task_seconds", "kind", "reduce"),
			shuffleBytes:  make(map[string]metrics.Observer),
			shuffleFetch:  make(map[string]metrics.Counter),
		}
	}
	return &rt.h
}

// workerPool lazily builds the pool selected by Workers. Called only from
// the engine goroutine, like every other Runtime method.
func (rt *Runtime) workerPool() *WorkerPool {
	if rt.Workers >= 0 && rt.Workers <= 1 {
		return nil
	}
	if rt.pool == nil {
		rt.pool = NewWorkerPool(rt.Workers) // Workers < 0 → DefaultWorkers
	}
	return rt.pool
}

// CloseWorkers shuts the worker pool down (a no-op when none was started).
// Call it when a Runtime with Workers > 1 is discarded.
func (rt *Runtime) CloseWorkers() {
	if rt.pool != nil {
		rt.pool.Close()
		rt.pool = nil
	}
}

// NewRuntime wires a runtime together.
func NewRuntime(eng *sim.Engine, cluster *topology.Cluster, dfs *hdfs.DFS, rm *yarn.RM, params costmodel.Params) *Runtime {
	return &Runtime{Eng: eng, Cluster: cluster, DFS: dfs, RM: rm, Params: params}
}

// AMResource returns the ApplicationMaster container request. It comes from
// the job configuration (Params), never from any particular node's shape:
// deriving it from Workers()[0] gives the wrong answer on heterogeneous
// clusters.
func (rt *Runtime) AMResource() topology.Resource {
	return topology.Resource{VCores: rt.Params.AMContainerVCores, MemoryMB: rt.Params.AMContainerMB}
}

// MapOutput is the materialized result of one map task: real intermediate
// pairs bucketed by reduce partition, each bucket sorted by key.
type MapOutput struct {
	Split      *hdfs.Split
	Node       *topology.Node
	Partitions [][]Pair
	PartBytes  []int64
	TotalBytes int64
	Records    int64
	// InMemory marks outputs held in the U+ memory cache; their reduce-side
	// read is free.
	InMemory bool

	// NodeEpoch is the hosting node's boot generation when the output was
	// produced. Map output lives on the task node's local disk (or the AM
	// heap), not in HDFS — if the node has since crashed, the output is gone
	// and shuffle fetches against it fail.
	NodeEpoch int
}

// Available reports whether the output can still be fetched (its node is up
// and has not rebooted since the map ran).
func (mo *MapOutput) Available() bool { return mo.Node.AliveEpoch(mo.NodeEpoch) }

// ErrOutputLost is reported by FetchPartition when a completed map's output
// vanished with its node — Hadoop's too-many-fetch-failures signal, which
// makes the AM re-execute the map.
var ErrOutputLost = errors.New("mapreduce: map output lost with its node")

// ErrAMLost reports that a job's ApplicationMaster died with its node. The
// submission framework treats it as retryable: the job is relaunched from
// scratch up to MaxAMAttempts times (yarn.resourcemanager.am.max-attempts).
var ErrAMLost = errors.New("mapreduce: application master lost with its node")

// ExecMap runs the map function for real over split data: scan records,
// map, partition, sort each partition, and optionally combine. It is pure
// computation — the caller charges the virtual clock separately.
func ExecMap(spec *JobSpec, data []byte) *MapOutput {
	return ExecMapFile(spec, "", data)
}

// ExecMapFile is ExecMap for a named input file, honoring spec.MapFor.
func ExecMapFile(spec *JobSpec, file string, data []byte) *MapOutput {
	nred := spec.NumReduces
	part := spec.partitioner()
	out := &MapOutput{
		Partitions: make([][]Pair, nred),
		PartBytes:  make([]int64, nred),
	}
	// Emits collect in pooled per-partition scratch; each partition is then
	// sorted through an index (see sortPairs) and gathered once, in order,
	// into the slice it keeps.
	raw := runScratch.get(nred)
	for range nred {
		raw = append(raw, emitScratch.get(0))
	}
	var emit Emit
	if nred == 1 {
		// Single-reduce short jobs (the paper's case) skip partitioning.
		emit = func(k, v []byte) {
			raw[0] = append(raw[0], Pair{Key: k, Value: v})
		}
	} else {
		emit = func(k, v []byte) {
			p := part(k, nred)
			if p < 0 || p >= nred {
				panic(fmt.Sprintf("mapreduce: partitioner returned %d of %d", p, nred))
			}
			raw[p] = append(raw[p], Pair{Key: k, Value: v})
		}
	}
	mapFn := spec.Map
	if spec.MapFor != nil {
		if fn := spec.MapFor(file); fn != nil {
			mapFn = fn
		}
	}
	spec.Format.Scan(data, func(k, v []byte) {
		out.Records++
		mapFn(k, v, emit)
	})
	for p, ps := range raw {
		switch {
		case len(ps) == 0:
		case spec.Combine == nil:
			out.Partitions[p] = sortPairs(make([]Pair, 0, len(ps)), ps)
		default:
			// Only combine's output is kept, so the sorted input is
			// scratch too.
			sorted := sortPairs(pairScratch.get(len(ps)), ps)
			out.Partitions[p] = combine(spec.Combine, [][]Pair{sorted})
			pairScratch.put(sorted)
		}
		emitScratch.put(ps)
		var n int64
		for _, pr := range out.Partitions[p] {
			n += pr.Bytes()
		}
		out.PartBytes[p] = n
		out.TotalBytes += n
	}
	runScratch.put(raw)
	return out
}

// comparePairs orders pairs by key, breaking key ties by value so the order
// — and therefore every downstream byte — is fully deterministic without
// needing a stable sort. It is the reference order: sortPairs and the merge
// heap reproduce it from key prefixes, and the tests check them against it.
func comparePairs(a, b Pair) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return bytes.Compare(a.Value, b.Value)
}

// compareBytes is bytes.Compare that settles slices sharing one backing
// array without the call, such as a map function's constant value
// (WordCount's "1"), which the sort and merge compare on every key tie.
func compareBytes(a, b []byte) int {
	if len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) {
		return 0
	}
	return bytes.Compare(a, b)
}

// sortEntry is the sort's stand-in for one pair: a pointer-free 16 bytes,
// so the sort swaps no Key/Value headers and runs no GC write barriers,
// and most comparisons end on the integer prefix without touching the key.
type sortEntry struct {
	prefix uint64 // the key's first 8 bytes, big-endian, zero-padded
	idx    uint32 // the pair's index in the unsorted input
	klen   uint32 // the key's length
}

// keyPrefix packs a key's first 8 bytes big-endian, zero-padding short
// keys, so prefix order agrees with bytes.Compare wherever prefixes differ.
func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var p uint64
	for i, c := range k {
		p |= uint64(c) << (56 - 8*i)
	}
	return p
}

// compareTie finishes comparePairs for two pairs whose keys, of the given
// lengths, share their 8-byte prefix. Keys of at most 8 bytes then agree
// up to the shorter length and the longer one continues with zero bytes,
// so the shorter key sorts first and equal lengths mean equal keys. Any
// longer key needs the full comparison.
func compareTie(a, b *Pair, alen, blen uint32) int {
	if alen <= 8 && blen <= 8 {
		if alen != blen {
			return cmp.Compare(alen, blen)
		}
	} else if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return compareBytes(a.Value, b.Value)
}

// keysEqual reports whether keys a and b, with prefixes pa and pb, are
// equal, reading their bytes only when the prefixes cannot settle it.
func keysEqual(a, b []byte, pa, pb uint64) bool {
	return pa == pb && len(a) == len(b) && (len(a) <= 8 || bytes.Equal(a, b))
}

// sortPairs appends src's pairs to dst in comparePairs order and returns
// the extended slice; src is left untouched. Sorting intermediate data is
// the hottest real computation in the whole simulator, so it sorts pooled
// prefix-keyed entries (see sortEntry) and gathers each pair exactly once.
// Runs of equal keys come out sharing the first one's slice, so the
// merge's later equality checks on them end at the pointer comparison.
func sortPairs(dst, src []Pair) []Pair {
	es := entryScratch.get(len(src))[:len(src)]
	for i, p := range src {
		es[i] = sortEntry{prefix: keyPrefix(p.Key), idx: uint32(i), klen: uint32(len(p.Key))}
	}
	slices.SortFunc(es, func(a, b sortEntry) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		return compareTie(&src[a.idx], &src[b.idx], a.klen, b.klen)
	})
	var prev sortEntry
	for i, e := range es {
		p := src[e.idx]
		if last := len(dst) - 1; i > 0 && keysEqual(p.Key, dst[last].Key, e.prefix, prev.prefix) {
			p.Key = dst[last].Key
		}
		dst = append(dst, p)
		prev = e
	}
	entryScratch.put(es)
	return dst
}

// headRun is one run in a runHeap, with its head key's prefix cached.
type headRun struct {
	run    []Pair
	prefix uint64 // keyPrefix(run[0].Key)
}

// less orders runs by their head pairs in comparePairs order.
func (a *headRun) less(b *headRun) bool {
	if a.prefix != b.prefix {
		return a.prefix < b.prefix
	}
	x, y := &a.run[0], &b.run[0]
	return compareTie(x, y, uint32(len(x.Key)), uint32(len(y.Key))) < 0
}

// runHeap is a binary min-heap of non-empty sorted runs ordered by their
// head pair: the k-way merge behind mergeGroup and mergeSortedRuns,
// O(n log k) instead of re-sorting everything, which matters when a reduce
// pulls dozens of pre-sorted map outputs. Sifts are hand-rolled
// (container/heap would box every run through an interface) and compare
// cached prefixes first; the heap is drawn from its pool and released
// with release.
type runHeap []headRun

func newRunHeap(runs [][]Pair) runHeap {
	h := runHeap(heapScratch.get(len(runs)))
	for _, r := range runs {
		if len(r) > 0 {
			h = append(h, headRun{run: r, prefix: keyPrefix(r[0].Key)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.sift(i)
	}
	return h
}

func (h runHeap) release() { heapScratch.put(h) }

// take removes the smallest head pair from the heap together with every
// identical pair right behind it in the same run, and returns them. The
// merge would emit those duplicates next anyway, and taking them at once
// saves a sift per pair on duplicate-heavy data such as WordCount's
// (word, "1") emits. The heap must be non-empty.
func (h *runHeap) take() []Pair {
	s := *h
	top := s[0]
	r := top.run
	n := 1
	var next uint64
	for ; n < len(r); n++ {
		next = keyPrefix(r[n].Key)
		if !keysEqual(r[n].Key, r[0].Key, next, top.prefix) || !bytes.Equal(r[n].Value, r[0].Value) {
			break
		}
	}
	if n < len(r) {
		s[0] = headRun{run: r[n:], prefix: next}
	} else {
		last := len(s) - 1
		s[0] = s[last]
		s[last] = headRun{}
		s = s[:last]
		*h = s
	}
	s.sift(0)
	return r[:n]
}

// sift restores the min-heap property at index i.
func (h runHeap) sift(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].less(&h[l]) {
			m = r
		}
		if !h[m].less(&h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// mergeGroup k-way merges sorted runs and yields each distinct key, in
// order, with its values from every run in comparePairs order — the
// merge streamed straight into grouping, with no merged slice in between.
// The values slice is scratch reused between keys (and pooled across
// calls): consumers — reducers and combiners — must not retain it past the
// yield, the same contract Hadoop's reduce iterable has. Retaining
// individual value byte slices is fine.
func mergeGroup(runs [][]Pair, yield func(key []byte, values [][]byte)) {
	h := newRunHeap(runs)
	values := valScratch.get(0)
	for len(h) > 0 {
		key, prefix := h[0].run[0].Key, h[0].prefix
		values = values[:0]
		for len(h) > 0 && keysEqual(h[0].run[0].Key, key, h[0].prefix, prefix) {
			for _, p := range h.take() {
				values = append(values, p.Value)
			}
		}
		yield(key, values)
	}
	valScratch.put(values)
	h.release()
}

// mergeSortedRuns merges sorted runs into one sorted slice of exactly
// their total length, which the caller keeps: the consolidated partition
// of a job without a combiner. A lone non-empty run is returned as is.
func mergeSortedRuns(runs [][]Pair) []Pair {
	var total, nonEmpty int
	var last []Pair
	for _, r := range runs {
		total += len(r)
		if len(r) > 0 {
			nonEmpty++
			last = r
		}
	}
	if nonEmpty <= 1 {
		return last
	}
	h := newRunHeap(runs)
	out := make([]Pair, 0, total)
	for len(h) > 0 {
		out = append(out, h.take()...)
	}
	h.release()
	return out
}

// combine runs the combiner over the merge of sorted runs and returns its
// output, sorted, in a slice of exactly its length that the caller keeps;
// the runs are left untouched. Combiners that emit each group's key once,
// like WordCount's sum, already emit in order, so the re-sort is skipped
// whenever the output is sorted.
func combine(c ReduceFunc, runs [][]Pair) []Pair {
	scratch := pairScratch.get(0)
	emit := func(k, v []byte) { scratch = append(scratch, Pair{Key: k, Value: v}) }
	mergeGroup(runs, func(key []byte, values [][]byte) { c(key, values, emit) })
	var out []Pair
	switch {
	case len(scratch) == 0:
	case slices.IsSortedFunc(scratch, comparePairs):
		out = append(make([]Pair, 0, len(scratch)), scratch...)
	default:
		out = sortPairs(make([]Pair, 0, len(scratch)), scratch)
	}
	pairScratch.put(scratch)
	return out
}

// spillCount reports how many spill files a map output of n bytes produces
// given the sort buffer size.
func spillCount(n, sortBuf int64) int {
	if n <= 0 {
		return 0
	}
	c := int((n + sortBuf - 1) / sortBuf)
	if c < 1 {
		c = 1
	}
	return c
}

// MapTaskOptions control how a map task charges its output I/O.
type MapTaskOptions struct {
	// SpillToDisk charges the spill (and merge, when the output exceeds the
	// sort buffer) to the node's disk. The U+ mode turns this off while the
	// output fits its memory cache.
	SpillToDisk bool

	// KeepInMemory, when non-nil, is consulted once the map's output size is
	// known; returning true overrides SpillToDisk and stores the output in
	// memory. The U+ mode uses this to admit outputs into its cache budget.
	KeepInMemory func(outBytes int64) bool

	// Attempt is the retry ordinal of this task execution (0 = first).
	Attempt int

	// Parent is the trace span the task's spans nest under (the owning
	// job's root span); 0 when untraced.
	Parent trace.SpanID
}

// keepInMemory resolves the effective storage decision for an output size.
func (o MapTaskOptions) keepInMemory(outBytes int64) bool {
	if o.KeepInMemory != nil {
		return o.KeepInMemory(outBytes)
	}
	return !o.SpillToDisk
}

// RunMapTask executes one map task on a node: read the split from HDFS
// (locality-priced), run the map function on a core, and spill the output.
// done receives the materialized output together with the task profile.
func (rt *Runtime) RunMapTask(spec *JobSpec, split *hdfs.Split, node *topology.Node, opts MapTaskOptions, done func(*MapOutput, *profiler.TaskProfile, error)) {
	if done == nil {
		panic("mapreduce: RunMapTask needs a completion callback")
	}
	tp := &profiler.TaskProfile{
		Kind:      profiler.MapTask,
		Index:     split.Index,
		Node:      node.Name,
		Started:   rt.Eng.Now(),
		NodeLocal: split.HostedOn(node),
		Attempt:   opts.Attempt,
	}
	// The task process dies silently if its node crashes: engine events
	// cannot be cancelled, so every continuation below re-checks the boot
	// generation captured here and abandons the task (no done, no core
	// release — the reborn node starts with fresh devices; its spans stay
	// open, which the analyzer and exporters read as "abandoned"). The AM
	// learns of the loss from the RM's lost-container report instead.
	epoch := node.Epoch()
	comp := "task/" + node.Name
	var span, readSpan trace.SpanID
	if rt.Trace != nil {
		span = rt.Trace.StartSpan(opts.Parent, comp, fmt.Sprintf("map-%d", split.Index), "map",
			trace.A("attempt", fmt.Sprint(opts.Attempt)),
			trace.A("split", split.File))
		readSpan = rt.Trace.StartSpan(span, comp, "read", "map")
	}
	readStart := rt.Eng.Now()
	rt.ReadSplit(split, node, func(data []byte, err error) {
		if !node.AliveEpoch(epoch) {
			return
		}
		if err != nil {
			if rt.Trace != nil {
				rt.Trace.EndSpan(readSpan, trace.A("error", err.Error()))
				rt.Trace.EndSpan(span, trace.A("error", err.Error()))
			}
			done(nil, tp, err)
			return
		}
		tp.ReadDur = rt.Eng.Now().Sub(readStart)
		if rt.Trace != nil {
			rt.Trace.EndSpan(readSpan, trace.A("bytes", fmt.Sprint(len(data))))
		}
		tp.InputBytes = int64(len(data))
		if fail, point := rt.Faults.MapAttemptFor(spec.OutputFile, split.Index, opts.Attempt); fail {
			// The attempt crashes partway through its compute phase: charge
			// the core for the work done before the death, then surface the
			// failure for the AM to reschedule.
			node.Cores.Acquire(1, func() {
				if !node.AliveEpoch(epoch) {
					return
				}
				partial := time.Duration(float64(spec.MapComputeTime(split, int64(len(data)), node)) * point)
				computeStart := rt.Eng.Now()
				rt.Eng.After(partial, func() {
					if !node.AliveEpoch(epoch) {
						return
					}
					tp.ComputeDur = rt.Eng.Now().Sub(computeStart)
					node.Cores.Release(1)
					tp.Failed = true
					tp.Ended = rt.Eng.Now()
					rt.Faults.FailNow()
					if rt.Trace != nil {
						rt.Trace.Add("task", "map %d attempt %d FAILED on %s", split.Index, opts.Attempt, node.Name)
						rt.Trace.SpanSince(span, comp, "compute", "map", computeStart)
						rt.Trace.EndSpan(span, trace.A("failed", "true"))
					}
					rt.handles().mapFailed.Inc()
					done(nil, tp, &AttemptError{Kind: "map", Index: split.Index, Attempt: opts.Attempt})
				})
			})
			return
		}
		// Dispatch the pure map computation as soon as the bytes are known:
		// on the worker pool it overlaps with other tasks (and with the
		// engine itself); on the sequential path Async runs it inline here.
		// Either way the virtual timeline below is identical.
		fut := Async(rt.workerPool(), func() *MapOutput {
			return rt.execMapCached(spec, split, data)
		})
		node.Cores.Acquire(1, func() {
			if !node.AliveEpoch(epoch) {
				fut.Wait() // drain the host-side computation
				return
			}
			// Charge the map function first — its cost depends only on the
			// input size — and await the real result when the output-sized
			// sort charge needs it. The await point is a fixed event on the
			// virtual timeline, so parallelism never reorders anything.
			compute := spec.MapComputeTime(split, int64(len(data)), node)
			computeStart := rt.Eng.Now()
			rt.Eng.After(compute, func() {
				mo := fut.Wait()
				if !node.AliveEpoch(epoch) {
					return
				}
				mo.Split = split
				mo.Node = node
				mo.NodeEpoch = epoch
				mo.InMemory = opts.keepInMemory(mo.TotalBytes)
				tp.Records = mo.Records
				tp.OutputBytes = mo.TotalBytes
				// Sorting/serializing the output buffer is CPU charged with
				// the map function.
				sort := time.Duration(float64(mo.TotalBytes) / (rt.Params.SortCPUBytesPerSec * node.Type.CPUSpeed) * float64(time.Second))
				rt.Eng.After(sort, func() {
					if !node.AliveEpoch(epoch) {
						return
					}
					tp.ComputeDur = rt.Eng.Now().Sub(computeStart)
					node.Cores.Release(1)
					if rt.Trace != nil {
						rt.Trace.SpanSince(span, comp, "compute", "map", computeStart,
							trace.A("records", fmt.Sprint(mo.Records)))
					}
					rt.spillPhase(mo, node, epoch, span, tp, func() {
						tp.Ended = rt.Eng.Now()
						if rt.Trace != nil {
							rt.Trace.Add("task", "map %d attempt %d done on %s (in=%d out=%d mem=%v)",
								split.Index, opts.Attempt, node.Name, tp.InputBytes, tp.OutputBytes, mo.InMemory)
							rt.Trace.EndSpan(span, trace.A("out_bytes", fmt.Sprint(mo.TotalBytes)))
						}
						h := rt.handles()
						h.mapOK.Inc()
						h.mapSeconds.Observe(tp.Elapsed().Seconds())
						done(mo, tp, nil)
					})
				})
			})
		})
	})
}

// execMapCached runs ExecMapFile through the MapCache. It is called from
// worker-pool goroutines, possibly concurrently for the same key (e.g. the
// two speculative modes mapping the same split); the cache's sharded locks
// make that safe, and the duplicate store deduplicates.
func (rt *Runtime) execMapCached(spec *JobSpec, split *hdfs.Split, data []byte) *MapOutput {
	if rt.MapCache != nil {
		if hit, ok := rt.MapCache.lookup(spec, split.File, split.Offset, data); ok {
			return hit
		}
	}
	mo := ExecMapFile(spec, split.File, data)
	if rt.MapCache != nil {
		rt.MapCache.store(spec, split.File, split.Offset, data, mo)
	}
	return mo
}

// spillPhase charges the spill and merge sub-phases of Eq. 1: the spill
// writes s^o once; when the output needed multiple spills, the merge pass
// reads everything back and writes it again.
func (rt *Runtime) spillPhase(mo *MapOutput, node *topology.Node, epoch int, parent trace.SpanID, tp *profiler.TaskProfile, done func()) {
	comp := "task/" + node.Name
	if mo.InMemory || mo.TotalBytes == 0 {
		tp.Spills = 0
		rt.Eng.After(0, func() {
			if !node.AliveEpoch(epoch) {
				return
			}
			done()
		})
		return
	}
	tp.Spills = spillCount(mo.TotalBytes, rt.Params.SortBufferBytes)
	spillStart := rt.Eng.Now()
	node.Disk.Use(mo.TotalBytes, func() {
		if !node.AliveEpoch(epoch) {
			return
		}
		tp.SpillDur = rt.Eng.Now().Sub(spillStart)
		if rt.Trace != nil {
			rt.Trace.SpanSince(parent, comp, "spill", "map", spillStart,
				trace.A("spills", fmt.Sprint(tp.Spills)))
		}
		if tp.Spills <= 1 {
			done()
			return
		}
		mergeStart := rt.Eng.Now()
		node.Disk.Use(mo.TotalBytes, func() { // read spills back
			node.Disk.Use(mo.TotalBytes, func() { // write merged file
				if !node.AliveEpoch(epoch) {
					return
				}
				tp.MergeDur = rt.Eng.Now().Sub(mergeStart)
				if rt.Trace != nil {
					rt.Trace.SpanSince(parent, comp, "merge", "map", mergeStart)
				}
				done()
			})
		})
	})
}

// shuffleByteBuckets are the upper bounds for the shuffle-size histogram:
// powers of ~4 from 1 KiB to 1 GiB.
var shuffleByteBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// ShuffleTransport classifies how a reduce-side read of mo actually moves
// on dst: straight from the heap (U+ memory cache on the same node), off
// the local disk, or across the network. It labels mapreduce_shuffle_bytes
// so in-memory cache reads are distinguishable from real shuffle traffic.
func ShuffleTransport(mo *MapOutput, dst *topology.Node) string {
	switch {
	case mo.InMemory && mo.Node == dst:
		return "memory"
	case mo.Node == dst:
		return "disk"
	default:
		return "network"
	}
}

// AddShuffleInFlight adjusts the count of shuffle bytes currently on the
// move — fetch starts add, completions subtract. Exported for the shuffle
// service, which charges its consolidated wire bytes through the same
// gauge. It moves only on the engine goroutine.
func (rt *Runtime) AddShuffleInFlight(n int64) { rt.shuffleInFlight += n }

// ShuffleBytesInFlight reports the bytes of shuffle fetches currently in
// progress, the gauge the flight recorder samples.
func (rt *Runtime) ShuffleBytesInFlight() int64 { return rt.shuffleInFlight }

// ObserveShuffle records one completed shuffle fetch: n bytes into the
// transport-labeled mapreduce_shuffle_bytes histogram plus a tick of the
// mapreduce_shuffle_fetch_total counter. kind is "permap" for the stock
// per-(map, partition) fetch and "consolidated" for the shuffle service's
// per-(node, partition) fetch.
func (rt *Runtime) ObserveShuffle(kind, transport string, n int64) {
	if rt.Reg == nil {
		return
	}
	h := rt.handles()
	ob, ok := h.shuffleBytes[transport]
	if !ok {
		name := metrics.With("mapreduce_shuffle_bytes", "transport", transport)
		rt.Reg.Define(name, shuffleByteBuckets)
		ob = rt.Reg.HistogramHandle(name)
		h.shuffleBytes[transport] = ob
	}
	ob.Observe(float64(n))
	fetch, ok := h.shuffleFetch[kind+"/"+transport]
	if !ok {
		fetch = rt.Reg.CounterHandle("mapreduce_shuffle_fetch_total", "kind", kind, "transport", transport)
		h.shuffleFetch[kind+"/"+transport] = fetch
	}
	fetch.Inc()
}

// ShuffleFetch is FetchPartition with observability: the fetch is recorded
// as a shuffle span under parent and its size lands in the shuffle-bytes
// histogram. AMs use this; FetchPartition remains the raw primitive.
func (rt *Runtime) ShuffleFetch(parent trace.SpanID, mo *MapOutput, part int, dst *topology.Node, done func(error)) {
	transport := ShuffleTransport(mo, dst)
	var span trace.SpanID
	if rt.Trace != nil {
		span = rt.Trace.StartSpan(parent, "task/"+dst.Name,
			fmt.Sprintf("fetch map-%d.p%d", mo.Split.Index, part), "shuffle",
			trace.A("from", mo.Node.Name),
			trace.A("transport", transport),
			trace.A("bytes", fmt.Sprint(mo.PartBytes[part])))
	}
	rt.AddShuffleInFlight(mo.PartBytes[part])
	rt.FetchPartition(mo, part, dst, func(err error) {
		rt.AddShuffleInFlight(-mo.PartBytes[part])
		if err != nil {
			if span != 0 {
				rt.Trace.EndSpan(span, trace.A("error", err.Error()))
			}
		} else {
			if span != 0 {
				rt.Trace.EndSpan(span)
			}
			rt.ObserveShuffle("permap", transport, mo.PartBytes[part])
		}
		done(err)
	})
}

// FetchPartition models the reduce-side fetch of one map output partition:
// a local disk read when the output sits on the reducer's node, a free
// access for U+ in-memory outputs, or a full network transfer (source disk,
// both NICs, core switch across racks) otherwise. done receives
// ErrOutputLost when the map output's node died before — or while — the
// fetch ran (Hadoop's fetch failure, which the AM answers by re-executing
// the map).
func (rt *Runtime) FetchPartition(mo *MapOutput, part int, dst *topology.Node, done func(error)) {
	if done == nil {
		panic("mapreduce: FetchPartition needs a completion callback")
	}
	if !mo.Available() {
		rt.Eng.After(rt.Params.RPCLatency, func() { done(ErrOutputLost) })
		return
	}
	n := mo.PartBytes[part]
	if n == 0 {
		rt.Eng.After(0, func() { done(nil) })
		return
	}
	if mo.InMemory && mo.Node == dst {
		// U+ memory cache: the reduce reads straight from the heap.
		rt.Eng.After(0, func() { done(nil) })
		return
	}
	// A fetch in flight when the source node dies is a failed fetch: the
	// completion re-checks availability (the timing still charges the
	// devices, matching a connection that drops partway through).
	if mo.Node == dst {
		dst.Disk.Use(n, func() {
			if !mo.Available() {
				done(ErrOutputLost)
				return
			}
			done(nil)
		})
		return
	}
	pending := 0
	finished := false
	complete := func() {
		pending--
		if pending == 0 && finished {
			if !mo.Available() {
				done(ErrOutputLost)
				return
			}
			done(nil)
		}
	}
	pending++
	mo.Node.Disk.Use(n, complete)
	pending++
	mo.Node.NIC.Use(n, complete)
	pending++
	dst.NIC.Use(n, complete)
	if mo.Node.Rack != dst.Rack {
		pending++
		rt.Cluster.CoreSwitch.Use(n, complete)
	}
	finished = true
}

// ExecReduce runs the reduce function for real over the fetched partitions:
// merge, group by key, reduce — streamed, with no merged slice. Pure
// computation. The result is drawn from the pair pool; a caller done with
// it may put it back with pairScratch.put.
func ExecReduce(spec *JobSpec, part int, outputs []*MapOutput) []Pair {
	runs := runScratch.get(len(outputs))
	for _, mo := range outputs {
		runs = append(runs, mo.Partitions[part])
	}
	result := pairScratch.get(0)
	emit := func(k, v []byte) { result = append(result, Pair{Key: k, Value: v}) }
	mergeGroup(runs, func(key []byte, values [][]byte) { spec.Reduce(key, values, emit) })
	runScratch.put(runs)
	return result
}

// EncodePairs serializes output pairs as tab-separated lines, the shape of
// TextOutputFormat, so job output is a plain inspectable HDFS file. The
// buffer is sized exactly up front — output encoding runs once per reduce
// over everything the task produced, so the doubling-growth copies a
// bytes.Buffer would do are pure waste.
func EncodePairs(ps []Pair) []byte {
	var n int
	for _, p := range ps {
		n += len(p.Key) + len(p.Value) + 2
	}
	buf := make([]byte, 0, n)
	for _, p := range ps {
		buf = append(buf, p.Key...)
		buf = append(buf, '\t')
		buf = append(buf, p.Value...)
		buf = append(buf, '\n')
	}
	return buf
}

// PartFileName returns the output file for one reduce partition.
func PartFileName(outputFile string, part int) string {
	return fmt.Sprintf("%s/part-%05d", outputFile, part)
}

// ReduceOptions control a reduce task execution.
type ReduceOptions struct {
	// Attempt is the retry ordinal (0 = first).
	Attempt int
	// Parent is the trace span the task's spans nest under; 0 when
	// untraced.
	Parent trace.SpanID
}

// RunReducePhase executes reduce partition part on node. It is
// RunReduceTask without tracing, kept for callers that predate spans.
func (rt *Runtime) RunReducePhase(spec *JobSpec, part, attempt int, outputs []*MapOutput, node *topology.Node, done func(*profiler.TaskProfile, error)) {
	rt.RunReduceTask(spec, part, ReduceOptions{Attempt: attempt}, outputs, node, done)
}

// RunReduceTask executes reduce partition part on node: merge-sort CPU,
// the reduce function, and the HDFS write of the output. Fetches must have
// completed already. done fires when the output file is durable.
func (rt *Runtime) RunReduceTask(spec *JobSpec, part int, opts ReduceOptions, outputs []*MapOutput, node *topology.Node, done func(*profiler.TaskProfile, error)) {
	if done == nil {
		panic("mapreduce: RunReduceTask needs a completion callback")
	}
	attempt := opts.Attempt
	tp := &profiler.TaskProfile{
		Kind:    profiler.ReduceTask,
		Index:   part,
		Node:    node.Name,
		Started: rt.Eng.Now(),
		Attempt: attempt,
	}
	comp := "task/" + node.Name
	var span trace.SpanID
	if rt.Trace != nil {
		span = rt.Trace.StartSpan(opts.Parent, comp, fmt.Sprintf("reduce-%d", part), "reduce",
			trace.A("attempt", fmt.Sprint(attempt)))
	}
	var in int64
	for _, mo := range outputs {
		in += mo.PartBytes[part]
	}
	tp.InputBytes = in
	// Abandon silently if the node dies mid-phase (see RunMapTask): the AM
	// hears about the lost container from the RM, never from the task.
	epoch := node.Epoch()
	if fail, point := rt.Faults.ReduceAttemptFor(spec.OutputFile, part, attempt); fail {
		node.Cores.Acquire(1, func() {
			if !node.AliveEpoch(epoch) {
				return
			}
			partial := time.Duration(float64(spec.ReduceComputeTime(in, node)) * point)
			computeStart := rt.Eng.Now()
			rt.Eng.After(partial, func() {
				if !node.AliveEpoch(epoch) {
					return
				}
				tp.ComputeDur = rt.Eng.Now().Sub(computeStart)
				node.Cores.Release(1)
				tp.Failed = true
				tp.Ended = rt.Eng.Now()
				rt.Faults.FailNow()
				if rt.Trace != nil {
					rt.Trace.SpanSince(span, comp, "compute", "reduce", computeStart)
					rt.Trace.EndSpan(span, trace.A("failed", "true"))
				}
				rt.handles().reduceFailed.Inc()
				done(tp, &AttemptError{Kind: "reduce", Index: part, Attempt: attempt})
			})
		})
		return
	}
	// The reduce computation is pure over already-materialized map outputs;
	// dispatch it now and await the encoded bytes only at the write point.
	type reduced struct {
		encoded []byte
		records int64
	}
	fut := Async(rt.workerPool(), func() reduced {
		result := ExecReduce(spec, part, outputs)
		r := reduced{encoded: EncodePairs(result), records: int64(len(result))}
		pairScratch.put(result) // encoded copies the bytes; the pair headers are dead
		return r
	})
	node.Cores.Acquire(1, func() {
		if !node.AliveEpoch(epoch) {
			fut.Wait() // drain the host-side computation
			return
		}
		compute := spec.ReduceComputeTime(in, node)
		// Merge-sort CPU over the shuffled bytes.
		compute += time.Duration(float64(in) / (rt.Params.SortCPUBytesPerSec * node.Type.CPUSpeed) * float64(time.Second))
		computeStart := rt.Eng.Now()
		rt.Eng.After(compute, func() {
			r := fut.Wait()
			if !node.AliveEpoch(epoch) {
				return
			}
			tp.OutputBytes = int64(len(r.encoded))
			tp.Records = r.records
			tp.ComputeDur = rt.Eng.Now().Sub(computeStart)
			node.Cores.Release(1)
			if rt.Trace != nil {
				rt.Trace.SpanSince(span, comp, "compute", "reduce", computeStart,
					trace.A("records", fmt.Sprint(r.records)))
			}
			writeStart := rt.Eng.Now()
			committed := func(err error) {
				if !node.AliveEpoch(epoch) {
					return
				}
				tp.SpillDur = rt.Eng.Now().Sub(writeStart)
				tp.Ended = rt.Eng.Now()
				if rt.Trace != nil {
					rt.Trace.Add("task", "reduce %d attempt %d done on %s (in=%d out=%d)",
						part, attempt, node.Name, tp.InputBytes, tp.OutputBytes)
					rt.Trace.SpanSince(span, comp, "write", "reduce", writeStart,
						trace.A("bytes", fmt.Sprint(tp.OutputBytes)))
					rt.Trace.EndSpan(span)
				}
				h := rt.handles()
				h.reduceOK.Inc()
				h.reduceSeconds.Observe(tp.Elapsed().Seconds())
				done(tp, err)
			}
			if spec.IntermediateOutput && rt.Intermediates != nil {
				// Intra-query intermediates skip the replicated HDFS write:
				// the output stays on the producer node (memory while the
				// store's budget lasts, local disk after) and the consuming
				// stage reads it shuffle-style. CommitIntermediate is
				// last-writer-wins like the HDFS path below.
				rt.CommitIntermediate(PartFileName(spec.OutputFile, part), r.encoded, node, committed)
				return
			}
			// A superseded attempt's write cannot be cancelled (engine events
			// are uncancellable), so a stale part file may have landed after an
			// AM relaunch wiped the output directory. Reduce output for a given
			// (job, partition) is deterministic, so committing is safely
			// last-writer-wins: clear any stale file and write ours.
			rt.DFS.Delete(PartFileName(spec.OutputFile, part))
			rt.DFS.Write(PartFileName(spec.OutputFile, part), r.encoded, node, func(_ *hdfs.File, err error) {
				committed(err)
			})
		})
	})
}

// Localize charges a fresh container's download of the job jar and
// configuration from HDFS (step 6 of the submission flow).
func (rt *Runtime) Localize(spec *JobSpec, node *topology.Node, done func(error)) {
	jar := JarPath(spec)
	conf := ConfPath(spec)
	rt.DFS.ReadAll(jar, node, func(_ []byte, err error) {
		if err != nil {
			done(err)
			return
		}
		rt.DFS.ReadAll(conf, node, func(_ []byte, err2 error) { done(err2) })
	})
}

// PollAlignedNotify invokes done at the client's next status-poll tick
// (polls happen every ClientPollInterval from submission). Stock Hadoop
// clients learn of job completion this way; the MRapid proxy's direct RPC
// notification skips it.
func (rt *Runtime) PollAlignedNotify(submittedAt sim.Time, done func()) {
	interval := rt.Params.ClientPollInterval
	if interval <= 0 {
		rt.Eng.After(0, done)
		return
	}
	elapsed := rt.Eng.Now().Sub(submittedAt)
	rem := interval - elapsed%interval
	if rem == interval {
		rem = 0
	}
	rt.Eng.After(rem, done)
}

// JarPath and ConfPath name the job artifacts a client uploads to HDFS.
func JarPath(spec *JobSpec) string  { return "/staging/" + spec.Name + "/job.jar" }
func ConfPath(spec *JobSpec) string { return "/staging/" + spec.Name + "/job.xml" }

// stagingZeros is the process-wide, read-only backing of every staged job
// jar and configuration. The artifacts' contents are never read back — only
// their lengths are charged — so all submissions share one zero slab instead
// of clearing megabytes per job. It is process-wide rather than per Runtime
// because the figure sweeps build a fresh Runtime for every point. It grows
// (never shrinks) under the mutex when a Params asks for larger artifacts;
// slices handed out earlier keep the old slab alive.
var stagingZeros struct {
	sync.Mutex
	buf []byte
}

// stagingBytes returns n read-only zero bytes, capped at n so that no
// append through the result can reach the shared slab.
func stagingBytes(n int64) []byte {
	stagingZeros.Lock()
	defer stagingZeros.Unlock()
	if int64(len(stagingZeros.buf)) < n {
		stagingZeros.buf = make([]byte, n)
	}
	return stagingZeros.buf[:n:n]
}

// UploadArtifacts stages the job jar and configuration into HDFS from the
// client (master) node, charged as real writes — step 1 of the flow. A
// resubmission of the same job name replaces the previous staging files
// (each submission pays the upload, as each Hadoop job ID stages afresh).
// The staged bytes alias stagingZeros, which HDFS never mutates.
func (rt *Runtime) UploadArtifacts(spec *JobSpec, done func(error)) {
	for _, name := range []string{JarPath(spec), ConfPath(spec)} {
		if rt.DFS.Exists(name) {
			if err := rt.DFS.Delete(name); err != nil {
				rt.Eng.After(0, func() { done(err) })
				return
			}
		}
	}
	jar := stagingBytes(rt.Params.JobJarBytes)
	conf := stagingBytes(rt.Params.JobConfBytes)
	rt.DFS.Write(JarPath(spec), jar, rt.Cluster.Master(), func(_ *hdfs.File, err error) {
		if err != nil {
			done(err)
			return
		}
		rt.DFS.Write(ConfPath(spec), conf, rt.Cluster.Master(), func(_ *hdfs.File, err2 error) {
			done(err2)
		})
	})
}
