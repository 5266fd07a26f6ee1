package main

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/mapreduce"
	"mrapid/internal/workloads"
)

// sweepMode is one column of a paper figure: the scheduler, pool and
// execution engine a job runs under.
type sweepMode struct {
	kind  core.ModeKind
	dplus bool
	pool  int
}

// sweepModes are the four columns of Figures 7–13, in display order.
var sweepModes = []sweepMode{
	{kind: core.ModeHadoop},
	{kind: core.ModeUber},
	{kind: core.ModeDPlus, dplus: true, pool: 3},
	{kind: core.ModeUPlus, dplus: true, pool: 3},
}

// corpusSeed fixes the WordCount sweep's text.
const corpusSeed = 1

// arrivalJitter spreads each sweep job's arrival over one NodeManager
// heartbeat period after the pool is up, so the seed moves the job's phase
// against the heartbeats the way an independent client's would.
const arrivalJitter = time.Second

// sweepPoint is one x-position of a figure.
type sweepPoint struct {
	label string
	// stage generates the point's input on the client side of a fresh
	// stack and returns the job with the client files its input is
	// uploaded from (set-up).
	stage func(st *stack, p *probe) (spec *mapreduce.JobSpec, client []string, err error)
	// check verifies the job's committed output (outside every timed phase).
	check func(st *stack, spec *mapreduce.JobSpec) error
}

// sweep runs every point in all four modes, each on a fresh simulation:
// the figure sweeps of the paper's evaluation. Each job's client arrives
// with its input, writes it into HDFS through the costed write path, and
// submits; latency runs from the arrival, while the per-mode columns are
// the job's own completion time, as in the paper's figures.
type sweep struct {
	seed   int64
	points []sweepPoint
}

func (s *sweep) prepare() error { return nil }

func (s *sweep) iterate(c *clock, p *probe, verify bool) (*virtual, error) {
	v := newVirtual()
	rng := rand.New(rand.NewSource(s.seed))
	for i, pt := range s.points {
		for j, m := range sweepModes {
			sub := &submission{tenant: "default", mode: m.kind, at: time.Duration(rng.Int63n(int64(arrivalJitter)))}
			var st *stack
			err := c.setupPhase(func() error {
				var err error
				st, err = newStack(stackConfig{dplus: m.dplus, pool: m.pool, seed: s.seed}, p)
				if err != nil {
					return err
				}
				var client []string
				sub.spec, client, err = pt.stage(st, p)
				if err != nil {
					return err
				}
				inputs := sub.spec.InputFiles
				sub.upload = func(done func(error)) { st.upload(client, inputs, done) }
				sub.spec.Name = fmt.Sprintf("%s-%s", sub.spec.Name, m.kind)
				p.wrapSpec(sub.spec)
				return nil
			})
			if err != nil {
				if st != nil {
					st.close()
				}
				return nil, fmt.Errorf("%s %s set-up: %w", pt.label, m.kind, err)
			}
			var makespan float64
			c.measured(st.eng, func() { makespan = st.drive([]*submission{sub}) })
			if i == len(s.points)-1 && j == len(sweepModes)-1 {
				c.settle() // the last point is the sweep's largest
			}
			err = sub.err
			if err == nil && verify {
				err = pt.check(st, sub.spec)
			}
			v.add(sub, st, err)
			if sub.result != nil {
				v.perMode[string(m.kind)] = append(v.perMode[string(m.kind)], sub.result.Elapsed())
			}
			v.makespan += makespan
			v.slot += st.srv.SlotSeconds
			p.harvest(st)
			st.close()
		}
	}
	return v, nil
}

// wordCountSweep is Figure 7's sweep — WordCount on A3×4 over 1–16 input
// files — at two file sizes, so the sweep has the 100+ submissions a p90
// needs. Keys are short, Zipf-distributed and heavily duplicated, with no
// combiner, as in the paper. The text comes from a fixed corpus seed: each
// corpus seed draws its own vocabulary, and a probe over five seeds moved
// heap allocation by 25%, which would swamp any change being measured. The
// run's seed adds up to 512 bytes to each point's file size and jitters
// arrivals and HDFS placement.
func wordCountSweep(seed int64) *sweep {
	s := &sweep{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	refs := map[string]map[string]int{} // point label → reference counts
	for _, base := range []int64{6 << 10, 20 << 10} {
		for files := 1; files <= 16; files++ {
			size, files := base+rng.Int63n(512), files
			label := fmt.Sprintf("%dx%dB", files, size)
			s.points = append(s.points, sweepPoint{
				label: label,
				stage: func(st *stack, p *probe) (*mapreduce.JobSpec, []string, error) {
					var client []string
					err := p.gen(func() (err error) {
						client, err = workloads.GenerateWordCountInput(st.dfs, st.cluster, "/client/wc", workloads.WordCountConfig{
							Files: files, FileBytes: size, Seed: corpusSeed,
						})
						return err
					})
					if err != nil {
						return nil, nil, err
					}
					return workloads.WordCountSpec("wordcount-"+label, inputNames("/in/wc", files), "/out/wc", false), client, nil
				},
				check: func(st *stack, spec *mapreduce.JobSpec) error {
					want, ok := refs[label]
					if !ok {
						input, err := concatFiles(st, spec.InputFiles)
						if err != nil {
							return err
						}
						want = workloads.CountWords(input)
						refs[label] = want
					}
					return checkWordCount(st, spec, want)
				},
			})
		}
	}
	return s
}

// teraSortSweep is Figure 10's sweep — TeraSort over 4 blocks with rising
// row counts — in 25 steps of 600 rows, plus up to 60 drawn from the seed.
// Keys are unique, uniformly random and 10 bytes long with 90-byte values:
// the same sort/merge code as WordCount, on the opposite key distribution.
func teraSortSweep(seed int64) *sweep {
	s := &sweep{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	for step := 1; step <= 25; step++ {
		rows := int64(step)*600 + rng.Int63n(60)
		label := fmt.Sprintf("%drows", rows)
		s.points = append(s.points, sweepPoint{
			label: label,
			stage: func(st *stack, p *probe) (*mapreduce.JobSpec, []string, error) {
				var client []string
				err := p.gen(func() (err error) {
					client, err = workloads.TeraGen(st.dfs, st.cluster, "/client/ts", workloads.TeraGenConfig{
						Rows: rows, Files: 4, Seed: seed,
					})
					return err
				})
				if err != nil {
					return nil, nil, err
				}
				// One reducer: TeraSortSpec samples no cut points, so the
				// job can be built before its input is uploaded.
				spec, err := workloads.TeraSortSpec(st.dfs, "terasort-"+label, inputNames("/in/ts", 4), "/out/ts", 1)
				return spec, client, err
			},
			check: func(st *stack, spec *mapreduce.JobSpec) error {
				return workloads.VerifyTeraSortOutput(st.dfs, spec.OutputFile, spec.NumReduces, rows)
			},
		})
	}
	return s
}

func inputNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = workloads.InputFileName(prefix, i)
	}
	return names
}

// concatFiles reads input files back from HDFS without charging I/O.
func concatFiles(st *stack, names []string) ([]byte, error) {
	var buf bytes.Buffer
	for _, n := range names {
		data, err := st.dfs.Contents(n)
		if err != nil {
			return nil, err
		}
		buf.Write(data)
	}
	return buf.Bytes(), nil
}

// checkWordCount compares a word-count-shaped output (word<TAB>count lines)
// with a reference count map.
func checkWordCount(st *stack, spec *mapreduce.JobSpec, want map[string]int) error {
	var got map[string]int
	for part := 0; part < spec.NumReduces; part++ {
		data, err := st.dfs.Contents(mapreduce.PartFileName(spec.OutputFile, part))
		if err != nil {
			return err
		}
		counts, err := workloads.ParseWordCountOutput(data)
		if err != nil {
			return err
		}
		if got == nil {
			got = counts
		} else {
			maps.Copy(got, counts)
		}
	}
	if !maps.Equal(got, want) {
		return fmt.Errorf("%s: output has %d distinct words, reference %d, or a count differs", spec.Name, len(got), len(want))
	}
	return nil
}
