package main

import (
	"strings"
	"sync/atomic"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/memo"
	"mrapid/internal/metrics"
	"mrapid/internal/query"
	"mrapid/internal/report"
	"mrapid/internal/sim"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// traceEventLimit bounds each simulation's free-form trace events; spans are
// always kept.
const traceEventLimit = 1 << 14

// probe attributes one traced iteration's cost to the simulator's layers
// from outside the program: wrappers at public seams (the yarn.Scheduler,
// the JobSpec functions, the JobServer observer), plus the metrics registry,
// the span trace and the critical-path report of every job. A nil probe is
// an untraced iteration: every method is a no-op and the stack is assembled
// exactly as it would be without the benchmark.
type probe struct {
	schedCalls atomic.Int64
	schedNS    atomic.Int64

	// JobSpec functions may run on the runtime's host worker pool.
	mapNS        atomic.Int64
	reduceNS     atomic.Int64
	mapRecords   atomic.Int64
	reduceGroups atomic.Int64

	genNS      time.Duration
	queueWaits []float64 // JobServer admission waits, virtual seconds
	completed  int64     // jobs the JobServer settled

	// Harvested from each simulation when it ends.
	maxPending   int
	counters     map[string]int64
	allocLatency *metrics.Histogram
	predErr      *metrics.Histogram
	written      int64
	read         int64
	memo         memo.Stats
	phases       map[string]int64 // critical-path nanos per phase, summed over jobs
	jobs         int
	dropped      int64
	savedBytes   int64

	stages, stagesFromMemo, maxConcurrent, lineageReruns int

	sims     int
	spanLogs []spanRecord
}

// spanRecord is one span of the traced iteration, in the format written out
// when the run ends.
type spanRecord struct {
	Sim       int     `json:"sim"`
	ID        int     `json:"id"`
	Parent    int     `json:"parent"`
	Component string  `json:"component"`
	Name      string  `json:"name"`
	Phase     string  `json:"phase,omitempty"`
	Start     float64 `json:"start_vs"`
	End       float64 `json:"end_vs"`
}

func newProbe() *probe {
	return &probe{counters: map[string]int64{}, phases: map[string]int64{}}
}

// timedScheduler wraps the RM's scheduler to count its calls and their host
// time. Name and behaviour are the wrapped scheduler's, so metrics labels
// and the virtual timeline are unchanged.
type timedScheduler struct {
	yarn.Scheduler
	p *probe
}

func (s timedScheduler) OnAllocate(rm *yarn.RM, app *yarn.App, asks []*yarn.Ask) []*yarn.Container {
	t := time.Now()
	out := s.Scheduler.OnAllocate(rm, app, asks)
	s.p.schedNS.Add(int64(time.Since(t)))
	s.p.schedCalls.Add(1)
	return out
}

func (s timedScheduler) OnNodeUpdate(rm *yarn.RM, nt *yarn.NodeTracker) {
	t := time.Now()
	s.Scheduler.OnNodeUpdate(rm, nt)
	s.p.schedNS.Add(int64(time.Since(t)))
	s.p.schedCalls.Add(1)
}

func (p *probe) wrapScheduler(s yarn.Scheduler) yarn.Scheduler {
	if p == nil {
		return s
	}
	return timedScheduler{Scheduler: s, p: p}
}

// attach gives a fresh simulation its trace log and metrics registry.
func (p *probe) attach(eng *sim.Engine, rm *yarn.RM, rt *mapreduce.Runtime, dfs *hdfs.DFS) {
	if p == nil {
		return
	}
	log := trace.New(eng, traceEventLimit)
	reg := metrics.New()
	rm.Trace, rm.Reg = log, reg
	rt.Trace, rt.Reg = log, reg
	dfs.Trace = log
}

// admissionTap records the JobServer's admission waits and completions.
type admissionTap struct{ p *probe }

func (t admissionTap) JobAdmitted(_ string, wait time.Duration) {
	t.p.queueWaits = append(t.p.queueWaits, wait.Seconds())
}

func (t admissionTap) JobCompleted(string, bool) { t.p.completed++ }

func (p *probe) observe(srv *core.JobServer) {
	if p != nil {
		srv.Observer = admissionTap{p}
	}
}

// wrapSpec times the job's user functions. The wrappers may run on several
// host workers at once, so they only touch atomics.
func (p *probe) wrapSpec(spec *mapreduce.JobSpec) {
	if p == nil {
		return
	}
	spec.Map = p.timeMap(spec.Map)
	if spec.MapFor != nil {
		inner := spec.MapFor
		spec.MapFor = func(file string) mapreduce.MapFunc { return p.timeMap(inner(file)) }
	}
	spec.Combine = p.timeReduce(spec.Combine)
	spec.Reduce = p.timeReduce(spec.Reduce)
}

func (p *probe) timeMap(fn mapreduce.MapFunc) mapreduce.MapFunc {
	if fn == nil {
		return nil
	}
	return func(key, value []byte, emit mapreduce.Emit) {
		t := time.Now()
		fn(key, value, emit)
		p.mapNS.Add(int64(time.Since(t)))
		p.mapRecords.Add(1)
	}
}

func (p *probe) timeReduce(fn mapreduce.ReduceFunc) mapreduce.ReduceFunc {
	if fn == nil {
		return nil
	}
	return func(key []byte, values [][]byte, emit mapreduce.Emit) {
		t := time.Now()
		fn(key, values, emit)
		p.reduceNS.Add(int64(time.Since(t)))
		p.reduceGroups.Add(1)
	}
}

// gen runs one input-generation step, charging its host time to the
// workload generators.
func (p *probe) gen(fn func() error) error {
	if p == nil {
		return fn()
	}
	t := time.Now()
	err := fn()
	p.genNS += time.Since(t)
	return err
}

// queryDone folds one finished query's DAG statistics in.
func (p *probe) queryDone(res *query.Result) {
	if p == nil || res == nil {
		return
	}
	p.stages += res.Stages
	for _, w := range res.Winners {
		if w == core.ModeMemo {
			p.stagesFromMemo++
		}
	}
	p.maxConcurrent = max(p.maxConcurrent, res.MaxConcurrent)
	p.lineageReruns += res.Recoveries
}

// harvest reads a finished simulation's registry, trace and counters, and
// partitions every job's critical path into phases.
func (p *probe) harvest(st *stack) {
	if p == nil {
		return
	}
	p.maxPending = max(p.maxPending, st.eng.MaxPending())
	for name, v := range st.rt.Reg.Counters() {
		p.counters[name] += v
	}
	hists := st.rt.Reg.Histograms()
	p.allocLatency = mergeHist(p.allocLatency, hists["yarn_alloc_latency_seconds"])
	p.predErr = mergeHist(p.predErr, hists["estimator_prediction_error"])
	for name, h := range hists {
		if base, labels := metrics.ParseSeries(name); base == "mapreduce_shuffle_bytes" {
			for _, l := range labels {
				if l.Key == "transport" {
					p.counters["shuffle_bytes/"+l.Value] += int64(h.Sum)
				}
			}
		}
	}
	p.written += st.dfs.BytesWritten
	p.read += st.dfs.BytesRead
	if st.rt.Intermediates != nil {
		p.savedBytes += st.rt.Intermediates.HDFSBytesAvoided
	}
	m := st.fw.Memo.Snapshot()
	p.memo.Hits += m.Hits
	p.memo.Misses += m.Misses
	p.memo.Invalidations += m.Invalidations
	p.memo.Evictions += m.Evictions

	log := st.rt.Trace
	p.sims++
	for _, s := range log.Spans() {
		end := s.End
		if !s.Ended {
			end = log.Now()
		}
		p.spanLogs = append(p.spanLogs, spanRecord{
			Sim: p.sims, ID: int(s.ID), Parent: int(s.Parent), Component: s.Component,
			Name: s.Name, Phase: s.Phase, Start: s.Start.Seconds(), End: end.Seconds(),
		})
		if s.Parent != 0 || s.Component != "job" {
			continue
		}
		rep, err := report.Analyze(log, s.ID)
		if err != nil {
			continue
		}
		p.jobs++
		for _, ph := range rep.Phases {
			p.phases[ph.Phase] += ph.Nanos
		}
	}
	p.dropped += log.Dropped()
}

// mergeHist adds b's observations into a (same bucket layout).
func mergeHist(a, b *metrics.Histogram) *metrics.Histogram {
	if b == nil {
		return a
	}
	if a == nil {
		return &metrics.Histogram{
			Buckets: b.Buckets, Counts: append([]int64(nil), b.Counts...), Sum: b.Sum, Count: b.Count,
		}
	}
	for i := range a.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Sum += b.Sum
	a.Count += b.Count
	return a
}

// phaseNames are report.Analyze's critical-path phases, in pipeline order.
var phaseNames = []string{"submit", "am", "schedule", "launch", "map", "shuffle", "commit", "reduce", "notify", "other"}

// layers returns the per-layer metrics this probe measured (everything but
// the CPU-profile shares and the figures derived from untraced iterations).
func (p *probe) layers() map[string]float64 {
	const mb = 1 << 20
	sumPrefix := func(prefix string) int64 {
		var n int64
		for name, v := range p.counters {
			if strings.HasPrefix(name, prefix) {
				n += v
			}
		}
		return n
	}
	direct := sumPrefix("estimator_direct_total")
	out := map[string]float64{
		"yarn.sched_calls":        float64(p.schedCalls.Load()),
		"yarn.sched_host_ms":      float64(p.schedNS.Load()) / 1e6,
		"yarn.allocations":        float64(sumPrefix("yarn_allocations_total")),
		"yarn.am_heartbeats":      float64(p.counters["yarn_am_heartbeats_total"]),
		"yarn.alloc_wait_p50_vs":  p.allocLatency.Quantile(0.5),
		"core.queue_wait_p50_vs":  percentile(p.queueWaits, 0.5),
		"core.queue_wait_p90_vs":  percentile(p.queueWaits, 0.9),
		"core.races":              float64(p.counters["estimator_race_total"]),
		"core.direct_picks":       float64(direct),
		"core.direct_ratio":       ratio(float64(direct), float64(p.completed)),
		"core.regret":             float64(sumPrefix("estimator_regret_total")),
		"mapreduce.task_attempts": float64(sumPrefix("mapreduce_task_attempts_total")),
		"mapreduce.failed_attempts": float64(
			p.counters[metrics.With("mapreduce_task_attempts_total", "kind", "map", "outcome", "failed")] +
				p.counters[metrics.With("mapreduce_task_attempts_total", "kind", "reduce", "outcome", "failed")]),
		"mapreduce.shuffle_mb.memory":  float64(p.counters["shuffle_bytes/memory"]) / mb,
		"mapreduce.shuffle_mb.disk":    float64(p.counters["shuffle_bytes/disk"]) / mb,
		"mapreduce.shuffle_mb.network": float64(p.counters["shuffle_bytes/network"]) / mb,
		"workloads.map_host_ms":        float64(p.mapNS.Load()) / 1e6,
		"workloads.reduce_host_ms":     float64(p.reduceNS.Load()) / 1e6,
		"workloads.map_records":        float64(p.mapRecords.Load()),
		"workloads.reduce_groups":      float64(p.reduceGroups.Load()),
		"workloads.gen_host_s":         p.genNS.Seconds(),
		"hdfs.written_mb":              float64(p.written) / mb,
		"hdfs.read_mb":                 float64(p.read) / mb,
		"memo.hits":                    float64(p.memo.Hits),
		"memo.misses":                  float64(p.memo.Misses),
		"memo.hit_ratio":               ratio(float64(p.memo.Hits), float64(p.memo.Hits+p.memo.Misses)),
		"memo.invalidations":           float64(p.memo.Invalidations),
		"memo.evictions":               float64(p.memo.Evictions),
		"query.stages":                 float64(p.stages),
		"query.stages_from_memo":       float64(p.stagesFromMemo),
		"query.max_concurrent":         float64(p.maxConcurrent),
		"query.lineage_reruns":         float64(p.lineageReruns),
		"query.saved_mb":               float64(p.savedBytes) / mb,
		"sim.max_pending":              float64(p.maxPending),
		"trace.spans":                  float64(len(p.spanLogs)),
		"trace.dropped":                float64(p.dropped),
	}
	out["core.pred_err"] = 0
	if p.predErr != nil {
		out["core.pred_err"] = p.predErr.Mean()
	}
	for _, ph := range phaseNames {
		out["phase."+ph+"_vs"] = ratio(float64(p.phases[ph])/1e9, float64(p.jobs))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
