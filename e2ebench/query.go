package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/hdfs"
	"mrapid/internal/memo"
	"mrapid/internal/query"
	"mrapid/internal/sim"
)

// query-repeat shape: queryRounds rounds of ten join-heavy queries. A round
// has two phases, each an open loop of Poisson arrivals every queryGap on
// average: three cold plans, then — once they have finished — seven plans
// that repeat or vary earlier ones, so whether the memo cache can serve
// them does not hinge on a race with their originals. After each round one
// returns file is rewritten through HDFS before the next round starts.
// Plans, table contents, rewrites and the arrival schedule are drawn
// from queryShape, the same for every seed, because content decides which
// stages the memo cache can serve; the seed jitters each arrival by up to
// arrivalJitter/100.
const (
	queryShape   = 1
	queryRounds  = 10
	queryGap     = 2 * time.Second
	queryPool    = 6
	salesRows    = 2400
	returnsRows  = salesRows / 2
	returnsFiles = 3
)

// queryRepeat is the only workload that measures the query layer, the
// cross-job memo cache and the intermediate store: a stream of cold plans,
// exact repeats and subtree-sharing variants through query.DAGRunner with
// the memo cache attached, plus a write that invalidates part of the cache
// between rounds.
type queryRepeat struct {
	seed   int64
	phases [][]queryJob // two per round
	want   []string     // per query, in submission order: canonical rows of a memo-off run
}

// queryJob is one query submission.
type queryJob struct {
	label string
	plan  *query.Plan
	at    time.Duration // arrival offset from the phase's start
}

// queryPlan is the workload's join-heavy shape: two independent filtered
// group-by branches joined on a high-cardinality key and sorted.
func queryPlan(amount, refund int, desc bool) *query.Plan {
	sales := query.Scan("sales").
		Filter(query.Where("amount", query.OpGt, strconv.Itoa(amount))).
		GroupBy([]string{"cell"}, query.Sum("amount"), query.Count())
	returns := query.Scan("returns").
		Filter(query.Where("refund", query.OpGt, strconv.Itoa(refund))).
		GroupBy([]string{"cell"}, query.Sum("refund"))
	return sales.Join(returns, "cell", "cell").OrderBy("sum(amount)", desc)
}

// newQueryRepeat lays out the rounds. In every round, the first phase runs
// three cold plans with fresh thresholds; the second repeats two of them
// exactly, repeats two of the previous round's (whose returns branch the
// rewrite has since invalidated), and flips the sort of all three, sharing
// every stage but the last.
func newQueryRepeat(seed int64) *queryRepeat {
	w := &queryRepeat{seed: seed}
	rng := rand.New(rand.NewSource(queryShape))
	jitter := rand.New(rand.NewSource(seed))
	type thresholds struct{ amount, refund int }
	var prev []thresholds
	for r := 0; r < queryRounds; r++ {
		cold := make([]thresholds, 3)
		for i := range cold {
			cold[i] = thresholds{100 + rng.Intn(800), 10 + rng.Intn(180)}
		}
		if prev == nil {
			prev = cold
		}
		var cur []queryJob
		add := func(kind string, t thresholds, desc bool) {
			cur = append(cur, queryJob{
				label: fmt.Sprintf("r%d/%s/%d>%d", r, kind, t.amount, t.refund),
				plan:  queryPlan(t.amount, t.refund, desc),
			})
		}
		schedule := func() {
			var at time.Duration
			for i := range cur {
				cur[i].at = at + time.Duration(jitter.Int63n(int64(arrivalJitter/100)))
				at += time.Duration(rng.ExpFloat64() * float64(queryGap))
			}
			w.phases = append(w.phases, cur)
			cur = nil
		}
		for _, t := range cold {
			add("cold", t, true)
		}
		schedule()
		add("repeat", cold[0], true)
		add("repeat", cold[1], true)
		add("repeat-prev", prev[1], true)
		add("repeat-prev", prev[2], true)
		for _, t := range cold {
			add("variant", t, false)
		}
		schedule()
		prev = cold
	}
	return w
}

// prepare evaluates the whole stream once with the memo cache off, outside
// every timed phase: the reference each query's rows must match.
func (w *queryRepeat) prepare() error {
	env, err := w.build(false, nil)
	if err != nil {
		return fmt.Errorf("query-repeat reference: %w", err)
	}
	defer env.st.close()
	outs, _, err := env.drive()
	if err != nil {
		return fmt.Errorf("query-repeat reference: %w", err)
	}
	for _, o := range outs {
		if o.err != nil {
			return fmt.Errorf("query-repeat reference %s: %w", o.job.label, o.err)
		}
		w.want = append(w.want, o.rows)
	}
	return nil
}

func (w *queryRepeat) iterate(c *clock, p *probe, _ bool) (*virtual, error) {
	var env *queryEnv
	err := c.setupPhase(func() error {
		var err error
		env, err = w.build(true, p)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("query-repeat set-up: %w", err)
	}
	defer env.st.close()
	v := newVirtual()
	var outs []*queryOutcome
	c.measured(env.st.eng, func() { outs, v.makespan, err = env.drive() })
	c.settle()
	if err != nil {
		return nil, fmt.Errorf("query-repeat: %w", err)
	}
	v.slot = env.st.srv.SlotSeconds
	for i, o := range outs {
		// Comparing canonical rows is cheap, so every iteration does it.
		err := o.err
		if err == nil && o.rows != w.want[i] {
			err = fmt.Errorf("rows differ from the memo-off evaluation")
		}
		h := fnv.New64a()
		h.Write([]byte(o.rows))
		v.record(o.job.label, o.latency, fmt.Sprintf("%016x", h.Sum64()), err)
		p.queryDone(o.res)
	}
	p.harvest(env.st)
	return v, nil
}

// queryOutcome is one finished query.
type queryOutcome struct {
	job     queryJob
	latency float64
	rows    string // canonical rows: encoded, sorted, newline-joined
	res     *query.Result
	err     error
}

// queryEnv is one assembled query-repeat simulation.
type queryEnv struct {
	w       *queryRepeat
	st      *stack
	dr      *query.DAGRunner
	returns *query.Table
}

// build assembles the stack, stages the sales/returns warehouse and, when
// memoOn, attaches the cross-job memo cache.
func (w *queryRepeat) build(memoOn bool, p *probe) (*queryEnv, error) {
	st, err := newStack(stackConfig{dplus: true, pool: queryPool, policy: core.PolicyWeightedFair, seed: w.seed}, p)
	if err != nil {
		return nil, err
	}
	if memoOn {
		st.fw.Memo = memo.New(st.rt.Reg, st.cluster.Workers(), memo.Config{
			MemBytes: st.params.MemoMemBytes, DiskBytes: st.params.MemoDiskBytes,
		})
	}
	cat := query.NewCatalog(st.dfs, st.cluster)
	var returns *query.Table
	err = p.gen(func() error {
		rng := rand.New(rand.NewSource(queryShape))
		sales := make([]query.Row, salesRows)
		for i := range sales {
			sales[i] = query.Row{strconv.Itoa(i), cell(rng), strconv.Itoa(rng.Intn(1000))}
		}
		if _, err := cat.Create("sales", query.Schema{"id", "cell", "amount"}, sales, 4); err != nil {
			return err
		}
		var err error
		returns, err = cat.Create("returns", query.Schema{"rid", "cell", "refund"}, returnsRowsFrom(rng, 0, returnsRows), returnsFiles)
		return err
	})
	if err != nil {
		st.close()
		return nil, err
	}
	dr, err := query.NewDAGRunner(st.fw, st.srv, cat)
	if err != nil {
		st.close()
		return nil, err
	}
	dr.Mode = query.ViaDPlus
	return &queryEnv{w: w, st: st, dr: dr, returns: returns}, nil
}

// cell draws a join key: about one cell per 8 sales rows, so group-by and
// join outputs are real intermediate data, not a handful of rows.
func cell(rng *rand.Rand) string { return fmt.Sprintf("c%05d", rng.Intn(salesRows/8)) }

func returnsRowsFrom(rng *rand.Rand, first, n int) []query.Row {
	rows := make([]query.Row, n)
	for i := range rows {
		rows[i] = query.Row{strconv.Itoa(first + i), cell(rng), strconv.Itoa(rng.Intn(200))}
	}
	return rows
}

// drive runs every phase on the virtual clock and returns the outcomes in
// submission order and the makespan.
func (e *queryEnv) drive() ([]*queryOutcome, float64, error) {
	eng := e.st.eng
	var outs []*queryOutcome
	first, last := sim.Time(-1), eng.Now()
	var rewriteErr error
	var startPhase func(ph int)
	startPhase = func(ph int) {
		pending := len(e.w.phases[ph])
		for _, job := range e.w.phases[ph] {
			job := job
			o := &queryOutcome{job: job}
			outs = append(outs, o)
			eng.After(job.at, func() {
				arrived := eng.Now()
				if first < 0 {
					first = arrived
				}
				e.dr.Run(job.plan, func(res *query.Result, err error) {
					last = eng.Now()
					o.latency = last.Sub(arrived).Seconds()
					o.res, o.err = res, err
					if err == nil {
						o.rows = canonRows(res.Rows)
					}
					if pending--; pending > 0 {
						return
					}
					switch {
					case ph+1 == len(e.w.phases):
						e.st.rm.Stop()
					case ph%2 == 0:
						startPhase(ph + 1)
					default:
						e.rewrite(ph/2, func(err error) {
							if err != nil {
								rewriteErr = err
								e.st.rm.Stop()
								return
							}
							startPhase(ph + 1)
						})
					}
				})
			})
		}
	}
	eng.After(0, func() { startPhase(0) })
	eng.RunUntil(horizon)
	if rewriteErr != nil {
		return nil, 0, rewriteErr
	}
	for _, o := range outs {
		if o.res == nil && o.err == nil {
			o.err = fmt.Errorf("did not finish within the horizon")
		}
	}
	total := 0
	for _, ph := range e.w.phases {
		total += len(ph)
	}
	for len(outs) < total {
		outs = append(outs, &queryOutcome{err: fmt.Errorf("phase never started")})
	}
	if first < 0 {
		return outs, 0, nil
	}
	return outs, last.Sub(first).Seconds(), nil
}

// rewrite replaces one returns file after round r with freshly drawn rows,
// through HDFS's costed write path. The new write generation invalidates
// every memoized stage that read the old file.
func (e *queryEnv) rewrite(r int, done func(error)) {
	file := e.returns.Files[r%len(e.returns.Files)]
	perFile := (returnsRows + returnsFiles - 1) / returnsFiles
	rng := rand.New(rand.NewSource(queryShape + int64(r+1)*7919))
	var buf bytes.Buffer
	for _, row := range returnsRowsFrom(rng, r*perFile, perFile) {
		buf.Write(query.EncodeRow(row))
		buf.WriteByte('\n')
	}
	if err := e.st.dfs.Delete(file); err != nil {
		done(err)
		return
	}
	writer := e.st.cluster.Workers()[r%len(e.st.cluster.Workers())]
	e.st.dfs.Write(file, buf.Bytes(), writer, func(_ *hdfs.File, err error) { done(err) })
}

// canonRows encodes a result's rows in the order they were returned. Every
// plan ends in a single-reducer ORDER BY, so the order is part of the
// answer: a result sorted the wrong way must not match.
func canonRows(rows []query.Row) string {
	enc := make([]string, len(rows))
	for i, r := range rows {
		enc[i] = strings.Join(r, "\x1f")
	}
	return strings.Join(enc, "\n")
}
