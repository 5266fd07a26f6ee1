package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/mapreduce"
	"mrapid/internal/workloads"
	"mrapid/internal/yarn"
)

// tenant-stream shape: streamJobs short jobs from streamTenants tenants,
// Poisson arrivals every streamGap on average, all speculative, over
// streamSets input sets per job kind. The pool runs two races at once. The
// job mix, the input text and the arrival schedule are drawn from
// streamShape, the same for every seed: the estimator's confidence gate
// turns small differences in input text into different launch decisions,
// which would make seeds incomparable. The seed jitters each arrival by up
// to arrivalJitter/100.
const (
	streamShape   = 1
	streamJobs    = 240
	streamTenants = 3
	streamSets    = 4
	streamPool    = 4
	streamGap     = 700 * time.Millisecond
	grepPattern   = "an"
	piTolerance   = 0.01
)

// tenantStream is the control-plane workload: job launch (uploading each
// job's artifacts), admission, the AM pool, the speculative race, the
// estimator and the execution history carry the host cost, while each
// job's data is a few KB and map, sort and reduce take about a quarter of
// the measured phase's CPU.
type tenantStream struct {
	seed int64
	refs map[string]map[string]int // input set → reference counts (WordCount, Grep)
}

func newTenantStream(seed int64) *tenantStream {
	return &tenantStream{seed: seed, refs: map[string]map[string]int{}}
}

func (w *tenantStream) prepare() error { return nil }

// streamJob records a submission's job kind and input set, for its check.
type streamJob struct {
	kind  string
	set   string
	files []string
}

func (w *tenantStream) iterate(c *clock, p *probe, verify bool) (*virtual, error) {
	var st *stack
	var subs []*submission
	var jobs []streamJob
	err := c.setupPhase(func() error {
		queues := make([]yarn.QueueConfig, streamTenants)
		for i := range queues {
			queues[i] = yarn.QueueConfig{Name: fmt.Sprintf("tenant-%d", i), Capacity: 0.7 / streamTenants}
		}
		var err error
		st, err = newStack(stackConfig{dplus: true, pool: streamPool, queues: queues, policy: core.PolicyWeightedFair, seed: w.seed}, p)
		if err != nil {
			return err
		}
		st.fw.Predict = true
		sets := map[string][]string{}
		err = p.gen(func() error {
			for k := 0; k < streamSets; k++ {
				wc, err := workloads.GenerateWordCountInput(st.dfs, st.cluster, fmt.Sprintf("/in/wc/%d", k), workloads.WordCountConfig{
					Files: 2, FileBytes: 4 << 10, Seed: streamShape*2*streamSets + int64(k),
				})
				if err != nil {
					return err
				}
				grep, err := workloads.GenerateWordCountInput(st.dfs, st.cluster, fmt.Sprintf("/in/grep/%d", k), workloads.WordCountConfig{
					Files: 2, FileBytes: 6 << 10, Seed: streamShape*2*streamSets + streamSets + int64(k),
				})
				if err != nil {
					return err
				}
				pi, err := workloads.GeneratePiInput(st.dfs, st.cluster, fmt.Sprintf("/in/pi/%d", k), workloads.PiConfig{
					Maps: 2, Samples: int64(2500 + 100*k),
				})
				if err != nil {
					return err
				}
				sets[fmt.Sprintf("wordcount/%d", k)] = wc
				sets[fmt.Sprintf("grep/%d", k)] = grep
				sets[fmt.Sprintf("pi/%d", k)] = pi
			}
			return nil
		})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(streamShape))
		jitter := rand.New(rand.NewSource(w.seed))
		var at time.Duration
		for i := 0; i < streamJobs; i++ {
			at += time.Duration(rng.ExpFloat64() * float64(streamGap))
			kind := []string{"wordcount", "grep", "pi"}[rng.Intn(3)]
			set := fmt.Sprintf("%s/%d", kind, rng.Intn(streamSets))
			name := fmt.Sprintf("%s-%03d", kind, i)
			out := fmt.Sprintf("/out/stream/%03d", i)
			var spec *mapreduce.JobSpec
			switch kind {
			case "wordcount":
				spec = workloads.WordCountSpec(name, sets[set], out, false)
			case "grep":
				spec = workloads.GrepSearchSpec(name, sets[set], out, grepPattern)
			default:
				spec = workloads.PiSpec(st.dfs, name, sets[set], out)
			}
			// Odd jobs get a key of their own, so only the class estimator
			// can pre-decide them; even jobs share their kind's key, which
			// the exact-match history answers after the first race.
			if i%2 == 1 {
				spec.JobKey = name
			}
			p.wrapSpec(spec)
			subs = append(subs, &submission{
				tenant: fmt.Sprintf("tenant-%d", rng.Intn(streamTenants)),
				mode:   core.ModeSpeculative,
				spec:   spec,
				at:     at + time.Duration(jitter.Int63n(int64(arrivalJitter/100))),
			})
			jobs = append(jobs, streamJob{kind: kind, set: set, files: sets[set]})
		}
		return nil
	})
	if err != nil {
		if st != nil {
			st.close()
		}
		return nil, fmt.Errorf("tenant-stream set-up: %w", err)
	}
	defer st.close()

	v := newVirtual()
	c.measured(st.eng, func() { v.makespan = st.drive(subs) })
	c.settle()
	for i, sub := range subs {
		err := sub.err
		if err == nil && verify {
			err = w.check(st, sub.spec, jobs[i])
		}
		v.add(sub, st, err)
	}
	v.slot = st.srv.SlotSeconds
	p.harvest(st)
	return v, nil
}

// check verifies one job's output against a sequential reference:
// WordCount against workloads.CountWords, Grep against a direct token scan,
// PI against π within piTolerance.
func (w *tenantStream) check(st *stack, spec *mapreduce.JobSpec, job streamJob) error {
	if job.kind == "pi" {
		est, err := workloads.PiEstimate(st.dfs, spec.OutputFile)
		if err != nil {
			return err
		}
		if math.Abs(est-math.Pi) > piTolerance {
			return fmt.Errorf("%s: π estimate %v is off by more than %v", spec.Name, est, piTolerance)
		}
		return nil
	}
	want, ok := w.refs[job.set]
	if !ok {
		input, err := concatFiles(st, job.files)
		if err != nil {
			return err
		}
		if job.kind == "wordcount" {
			want = workloads.CountWords(input)
		} else {
			want = grepReference(input, grepPattern)
		}
		w.refs[job.set] = want
	}
	return checkWordCount(st, spec, want)
}

// grepReference counts every whitespace-separated token containing pattern,
// sequentially.
func grepReference(data []byte, pattern string) map[string]int {
	counts := map[string]int{}
	for _, tok := range bytes.Fields(data) {
		if bytes.Contains(tok, []byte(pattern)) {
			counts[string(tok)]++
		}
	}
	return counts
}
