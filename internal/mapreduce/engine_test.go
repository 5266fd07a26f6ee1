package mapreduce

import (
	"bytes"
	"strconv"
	"testing"
	"testing/quick"

	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// newTestRuntime builds a full simulated cluster runtime for tests.
func newTestRuntime(t *testing.T, instance topology.InstanceType, workers int, sched yarn.Scheduler) *Runtime {
	t.Helper()
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: instance, Workers: workers, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, 42)
	rm := yarn.NewRM(eng, cluster, params, sched)
	rm.Start()
	return NewRuntime(eng, cluster, dfs, rm, params)
}

func wcSpec(inputs []string, output string) *JobSpec {
	return &JobSpec{
		Name:       "wc-test",
		JobKey:     "wordcount",
		InputFiles: inputs,
		OutputFile: output,
		NumReduces: 1,
		Format:     LineFormat{},
		Map: func(_, line []byte, emit Emit) {
			for _, w := range bytes.Fields(line) {
				emit(w, []byte("1"))
			}
		},
		Reduce: func(key []byte, values [][]byte, emit Emit) {
			total := 0
			for _, v := range values {
				n, _ := strconv.Atoi(string(v))
				total += n
			}
			emit(key, []byte(strconv.Itoa(total)))
		},
		MapRate:    6e6,
		ReduceRate: 12e6,
	}
}

func TestExecMapPartitionsAndSorts(t *testing.T) {
	spec := wcSpec([]string{"/x"}, "/o")
	spec.NumReduces = 4
	mo := ExecMap(spec, []byte("pear apple pear\nbanana apple\n"))
	if mo.Records != 2 {
		t.Fatalf("records = %d, want 2 lines", mo.Records)
	}
	var total int
	for p, pairs := range mo.Partitions {
		for i := 1; i < len(pairs); i++ {
			if bytes.Compare(pairs[i-1].Key, pairs[i].Key) > 0 {
				t.Fatalf("partition %d not sorted", p)
			}
		}
		for _, pr := range pairs {
			if HashPartition(pr.Key, 4) != p {
				t.Fatalf("key %q in wrong partition %d", pr.Key, p)
			}
		}
		total += len(pairs)
	}
	if total != 5 {
		t.Fatalf("pairs = %d, want 5 words", total)
	}
	var sum int64
	for p := range mo.PartBytes {
		sum += mo.PartBytes[p]
	}
	if sum != mo.TotalBytes || mo.TotalBytes == 0 {
		t.Fatalf("byte accounting wrong: %v vs %d", mo.PartBytes, mo.TotalBytes)
	}
}

func TestExecMapCombiner(t *testing.T) {
	spec := wcSpec([]string{"/x"}, "/o")
	spec.Combine = spec.Reduce
	mo := ExecMap(spec, []byte("a a a b\n"))
	if len(mo.Partitions[0]) != 2 {
		t.Fatalf("combiner left %d pairs, want 2", len(mo.Partitions[0]))
	}
	for _, p := range mo.Partitions[0] {
		if string(p.Key) == "a" && string(p.Value) != "3" {
			t.Fatalf("combined count for a = %q", p.Value)
		}
	}
}

func TestExecReduceGroupsAcrossOutputs(t *testing.T) {
	spec := wcSpec([]string{"/x"}, "/o")
	a := ExecMap(spec, []byte("x y\n"))
	b := ExecMap(spec, []byte("y z\n"))
	out := ExecReduce(spec, 0, []*MapOutput{a, b})
	got := map[string]string{}
	for _, p := range out {
		got[string(p.Key)] = string(p.Value)
	}
	if got["x"] != "1" || got["y"] != "2" || got["z"] != "1" {
		t.Fatalf("reduce output = %v", got)
	}
	// Output must be key-sorted.
	for i := 1; i < len(out); i++ {
		if bytes.Compare(out[i-1].Key, out[i].Key) > 0 {
			t.Fatal("reduce output not sorted")
		}
	}
}

// Property: ExecMap/ExecReduce over any partition count computes the same
// word counts as direct counting.
func TestQuickMapReduceEquivalence(t *testing.T) {
	f := func(raw []byte, nred8 uint8) bool {
		nred := 1 + int(nred8%5)
		data := bytes.Map(func(r rune) rune {
			if r == 0 {
				return ' '
			}
			return r
		}, raw)
		spec := wcSpec([]string{"/x"}, "/o")
		spec.NumReduces = nred
		mo := ExecMap(spec, data)
		want := map[string]int{}
		for _, w := range bytes.Fields(data) {
			want[string(w)]++
		}
		got := map[string]int{}
		for p := 0; p < nred; p++ {
			for _, pr := range ExecReduce(spec, p, []*MapOutput{mo}) {
				n, err := strconv.Atoi(string(pr.Value))
				if err != nil {
					return false
				}
				got[string(pr.Key)] = n
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpillCount(t *testing.T) {
	cases := []struct {
		n, buf int64
		want   int
	}{
		{0, 100, 0}, {1, 100, 1}, {100, 100, 1}, {101, 100, 2}, {350, 100, 4},
	}
	for _, c := range cases {
		if got := spillCount(c.n, c.buf); got != c.want {
			t.Errorf("spillCount(%d,%d) = %d, want %d", c.n, c.buf, got, c.want)
		}
	}
}

func TestRunMapTaskChargesPhases(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	node := rt.Cluster.Workers()[0]
	data := bytes.Repeat([]byte("hello world foo bar baz qux\n"), 50_000) // ~1.4 MB
	rt.DFS.PutInstant("/in", data, node)
	splits, _ := rt.DFS.Splits([]string{"/in"})
	spec := wcSpec([]string{"/in"}, "/out")

	var gotMO *MapOutput
	rt.RunMapTask(spec, splits[0], node, MapTaskOptions{SpillToDisk: true}, func(mo *MapOutput, tp *profiler.TaskProfile, err error) {
		if err != nil {
			t.Errorf("map failed: %v", err)
		}
		gotMO = mo
		if tp.ReadDur <= 0 || tp.ComputeDur <= 0 || tp.SpillDur <= 0 {
			t.Errorf("phases not charged: read=%v compute=%v spill=%v", tp.ReadDur, tp.ComputeDur, tp.SpillDur)
		}
		if tp.Spills != 1 {
			t.Errorf("spills = %d, want 1", tp.Spills)
		}
		if !tp.NodeLocal {
			t.Error("local read not flagged NodeLocal")
		}
		if tp.InputBytes != int64(len(data)) {
			t.Errorf("InputBytes = %d", tp.InputBytes)
		}
	})
	rt.Eng.RunUntil(sim.Time(1 << 40))
	if gotMO == nil {
		t.Fatal("map never completed")
	}
	if gotMO.TotalBytes == 0 || gotMO.Records == 0 {
		t.Fatal("map produced no output")
	}
}

func TestRunMapTaskMemoryModeSkipsSpill(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	node := rt.Cluster.Workers()[0]
	rt.DFS.PutInstant("/in", bytes.Repeat([]byte("a b c\n"), 1000), node)
	splits, _ := rt.DFS.Splits([]string{"/in"})
	spec := wcSpec([]string{"/in"}, "/out")
	done := false
	rt.RunMapTask(spec, splits[0], node, MapTaskOptions{SpillToDisk: false}, func(mo *MapOutput, tp *profiler.TaskProfile, err error) {
		done = true
		if tp.SpillDur != 0 || tp.Spills != 0 {
			t.Errorf("memory mode charged spill: %v / %d", tp.SpillDur, tp.Spills)
		}
		if !mo.InMemory {
			t.Error("output not marked InMemory")
		}
	})
	rt.Eng.RunUntil(sim.Time(1 << 40))
	if !done {
		t.Fatal("map never completed")
	}
}

func TestMergePassChargedWhenOutputExceedsSortBuffer(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	rt.Params.SortBufferBytes = 10 << 10 // 10 KB buffer forces merging
	node := rt.Cluster.Workers()[0]
	rt.DFS.PutInstant("/in", bytes.Repeat([]byte("alpha beta gamma delta\n"), 5000), node)
	splits, _ := rt.DFS.Splits([]string{"/in"})
	spec := wcSpec([]string{"/in"}, "/out")
	done := false
	rt.RunMapTask(spec, splits[0], node, MapTaskOptions{SpillToDisk: true}, func(_ *MapOutput, tp *profiler.TaskProfile, err error) {
		done = true
		if tp.Spills < 2 {
			t.Errorf("spills = %d, want ≥ 2", tp.Spills)
		}
		if tp.MergeDur <= 0 {
			t.Error("merge pass not charged")
		}
	})
	rt.Eng.RunUntil(sim.Time(1 << 40))
	if !done {
		t.Fatal("map never completed")
	}
}

func TestFetchPartitionCosts(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	src := rt.Cluster.Workers()[0]
	dst := rt.Cluster.Workers()[1]
	spec := wcSpec([]string{"/x"}, "/o")
	mo := ExecMap(spec, bytes.Repeat([]byte("word list for shuffle cost test\n"), 100_000))
	mo.Node = src

	measure := func(m *MapOutput, to *topology.Node) float64 {
		e := sim.NewEngine()
		c, _ := topology.NewCluster(e, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
		p := costmodel.Default()
		d := hdfs.New(e, c, p.HDFSBlockBytes, p.Replication, 42)
		r2 := NewRuntime(e, c, d, nil, p)
		m2 := *m
		m2.Node = c.Workers()[m.Node.ID-1]
		var at sim.Time
		r2.FetchPartition(&m2, 0, c.Workers()[to.ID-1], func(err error) {
			if err != nil {
				t.Fatalf("fetch failed: %v", err)
			}
			at = e.Now()
		})
		e.Run()
		return at.Seconds()
	}

	mo.InMemory = false
	remote := measure(mo, dst)
	local := measure(mo, src)
	if remote <= local {
		t.Errorf("remote fetch %.4fs not slower than local disk read %.4fs", remote, local)
	}
	mo.InMemory = true
	mem := measure(mo, src)
	if mem != 0 {
		t.Errorf("in-memory same-node fetch cost %.4fs, want 0", mem)
	}
	// In-memory flag does not help a remote reader.
	memRemote := measure(mo, dst)
	if memRemote <= 0 {
		t.Error("remote fetch of in-memory output should still cost network time")
	}
}

func TestEncodePairsAndPartFileName(t *testing.T) {
	got := EncodePairs([]Pair{{Key: []byte("k"), Value: []byte("v")}, {Key: []byte("a"), Value: []byte("2")}})
	if string(got) != "k\tv\na\t2\n" {
		t.Fatalf("EncodePairs = %q", got)
	}
	if PartFileName("/out", 3) != "/out/part-00003" {
		t.Fatalf("PartFileName = %q", PartFileName("/out", 3))
	}
}
