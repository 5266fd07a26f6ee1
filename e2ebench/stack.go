package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// horizon bounds one simulation; a submission still unfinished after this
// much virtual time counts as failed.
const horizon = sim.Time(1 << 42)

// poolReadyBy bounds the AM-pool warm-up that set-up runs before the first
// arrival.
const poolReadyBy = sim.Time(1 << 36)

// stackConfig selects one cluster assembly. Every workload runs on the
// paper's first testbed, A3×4 (1 NameNode + 4 A3 DataNodes in 2 racks).
type stackConfig struct {
	dplus  bool // MRapid's D+ scheduler instead of the stock heartbeat-driven one
	pool   int  // reserved AMs; 0 for the stock modes
	queues []yarn.QueueConfig
	policy core.AdmissionPolicy
	seed   int64 // HDFS replica placement
}

// stack is one fully wired simulation, assembled from the layers' public
// constructors: engine, topology, HDFS, YARN RM + scheduler, MapReduce
// runtime, MRapid framework with its AM pool, and the JobServer every
// submission goes through.
type stack struct {
	eng     *sim.Engine
	cluster *topology.Cluster
	dfs     *hdfs.DFS
	rm      *yarn.RM
	rt      *mapreduce.Runtime
	fw      *core.Framework
	srv     *core.JobServer
	params  costmodel.Params
}

// newStack builds and starts a simulation, warming the AM pool before it
// returns. With a probe, the scheduler is wrapped and the trace log and
// metrics registry are attached; without one, the stack runs untraced.
func newStack(cfg stackConfig, p *probe) (*stack, error) {
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
	if err != nil {
		return nil, err
	}
	params := costmodel.Default()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, cfg.seed)
	var sched yarn.Scheduler = yarn.NewStockScheduler()
	if cfg.dplus {
		sched = core.NewDPlusScheduler(core.FullDPlus())
	}
	sched = p.wrapScheduler(sched)
	rm := yarn.NewRM(eng, cluster, params, sched)
	rm.Start()
	rt := mapreduce.NewRuntime(eng, cluster, dfs, rm, params)
	rt.Workers = hostWorkers
	p.attach(eng, rm, rt, dfs)
	fw := core.NewFramework(rt, cfg.pool, core.FullUPlus())
	// The JobServer installs tenant queues before the pool starts, so the
	// reserved AM containers are charged to the default queue.
	srv, err := core.NewJobServer(fw, core.JobServerConfig{Queues: cfg.queues, Policy: cfg.policy})
	if err != nil {
		rt.CloseWorkers()
		return nil, err
	}
	p.observe(srv)
	ready := false
	eng.After(0, func() { fw.Start(func() { ready = true }) })
	eng.RunUntil(poolReadyBy)
	if !ready {
		rt.CloseWorkers()
		return nil, fmt.Errorf("AM pool of %d failed to start", cfg.pool)
	}
	return &stack{eng: eng, cluster: cluster, dfs: dfs, rm: rm, rt: rt, fw: fw, srv: srv, params: params}, nil
}

// close releases the host worker pool; the simulated state is dropped with
// the stack.
func (s *stack) close() { s.rt.CloseWorkers() }

// submission is one job handed to the JobServer at a scheduled virtual
// time. latency runs from that scheduled arrival to the client-observed
// completion.
type submission struct {
	tenant string
	mode   core.ModeKind
	spec   *mapreduce.JobSpec
	at     time.Duration // arrival offset from the start of the measured phase
	// upload, when set, copies the client's input into HDFS after arrival;
	// the job is submitted once it reports success.
	upload func(done func(error))

	arrived sim.Time
	latency float64
	result  *mapreduce.Result
	err     error
}

// drive schedules every submission on the open-loop arrival clock, runs the
// engine until all have completed (or the horizon passes), and returns the
// virtual makespan from the first arrival to the last completion.
func (s *stack) drive(subs []*submission) float64 {
	first, last := sim.Time(-1), s.eng.Now()
	remaining := len(subs)
	finish := func(sub *submission, err error) {
		last = s.eng.Now()
		sub.latency = last.Sub(sub.arrived).Seconds()
		sub.err = err
		if remaining--; remaining == 0 {
			s.rm.Stop()
		}
	}
	for _, sub := range subs {
		sub := sub
		submit := func() {
			err := s.srv.Submit(sub.tenant, sub.mode, sub.spec, func(res *mapreduce.Result) {
				sub.result = res
				finish(sub, res.Err)
			})
			if err != nil {
				finish(sub, err)
			}
		}
		s.eng.After(sub.at, func() {
			sub.arrived = s.eng.Now()
			if first < 0 {
				first = sub.arrived
			}
			if sub.upload == nil {
				submit()
				return
			}
			sub.upload(func(err error) {
				if err != nil {
					finish(sub, err)
					return
				}
				submit()
			})
		})
	}
	s.eng.RunUntil(horizon)
	for _, sub := range subs {
		if sub.result == nil && sub.err == nil {
			sub.err = fmt.Errorf("job %s did not finish within the horizon", sub.spec.Name)
		}
	}
	if first < 0 {
		return 0
	}
	return last.Sub(first).Seconds()
}

// upload copies client-side files into HDFS through the costed write path,
// file i from worker i mod n, and calls done once every copy is durable.
func (s *stack) upload(from, to []string, done func(error)) {
	workers := s.cluster.Workers()
	pending := len(from)
	var firstErr error
	for i := range from {
		data, err := s.dfs.Contents(from[i])
		if err != nil {
			s.eng.After(0, func() { done(err) })
			return
		}
		s.dfs.Write(to[i], data, workers[i%len(workers)], func(_ *hdfs.File, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if pending--; pending == 0 {
				done(firstErr)
			}
		})
	}
}

// outputHash fingerprints a finished job's committed output: FNV-64a over
// its part files in partition order.
func outputHash(dfs *hdfs.DFS, spec *mapreduce.JobSpec) (string, error) {
	h := fnv.New64a()
	for part := 0; part < spec.NumReduces; part++ {
		data, err := dfs.Contents(mapreduce.PartFileName(spec.OutputFile, part))
		if err != nil {
			return "", err
		}
		h.Write(data)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
