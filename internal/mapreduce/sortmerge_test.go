package mapreduce

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// sortOracle is the reference order: every pair sorted by comparePairs.
func sortOracle(ps []Pair) []Pair {
	ref := slices.Clone(ps)
	slices.SortFunc(ref, comparePairs)
	return ref
}

// checkSortPairs asserts sortPairs yields the oracle's order element for
// element. Pairs comparePairs calls equal have identical bytes, so an
// unstable sort still has exactly one right answer.
func checkSortPairs(t *testing.T, ps []Pair) {
	t.Helper()
	in := slices.Clone(ps)
	got := sortPairs(nil, ps)
	if !slices.EqualFunc(ps, in, pairBytesEqual) {
		t.Fatal("sortPairs modified its input")
	}
	want := sortOracle(ps)
	if len(got) != len(want) {
		t.Fatalf("sortPairs returned %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if !pairBytesEqual(got[i], want[i]) {
			t.Fatalf("pair %d = (%q, %q), want (%q, %q)", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

func pairBytesEqual(a, b Pair) bool {
	return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value)
}

// sortEdgePairs are the keys the prefix sort can get wrong: embedded and
// trailing 0x00 bytes (indistinguishable from zero padding in the prefix),
// empty keys, keys of exactly 8 bytes, keys that are prefixes of one
// another across the 8-byte boundary, and equal keys with different values.
var sortEdgePairs = []Pair{
	{Key: []byte("ab\x00"), Value: []byte("1")},
	{Key: []byte("ab"), Value: []byte("2")},
	{Key: []byte("ab"), Value: []byte("1")},
	{Key: []byte(""), Value: []byte("z")},
	{Key: []byte(""), Value: []byte("")},
	{Key: nil, Value: []byte("a")},
	{Key: []byte("\x00"), Value: []byte("x")},
	{Key: []byte("\x00\x00"), Value: []byte("x")},
	{Key: []byte("abcdefgh\x00"), Value: []byte("1")},
	{Key: []byte("abcdefgh"), Value: []byte("1")},
	{Key: []byte("abcdefgh"), Value: []byte("0")},
	{Key: []byte("abcdefgh"), Value: []byte("1")},
	{Key: []byte("abcdefgha"), Value: []byte("1")},
	{Key: []byte("abcdefg"), Value: []byte("9")},
	{Key: []byte("abcdefg\x00"), Value: []byte("9")},
	{Key: []byte("abcdefg\x00\x00"), Value: []byte("9")},
	{Key: []byte("a\x00b"), Value: []byte("1")},
	{Key: []byte("a\x00\x00\x00\x00\x00\x00\x00c"), Value: []byte("1")},
	{Key: []byte("a"), Value: []byte("1")},
	{Key: []byte("\xff\xff\xff\xff\xff\xff\xff\xff"), Value: []byte("1")},
	{Key: []byte("\xff\xff\xff\xff\xff\xff\xff\xff\x00"), Value: []byte("1")},
	{Key: []byte("\xff\xff\xff\xff\xff\xff\xff"), Value: []byte("1")},
}

func TestSortPairsEdgeCases(t *testing.T) {
	checkSortPairs(t, sortEdgePairs)
	// Every rotation changes which pairs the sort sees first.
	for i := range sortEdgePairs {
		rot := append(slices.Clone(sortEdgePairs[i:]), sortEdgePairs[:i]...)
		checkSortPairs(t, rot)
	}
	checkSortPairs(t, nil)
}

// Property: sortPairs returns exactly the comparePairs order, values
// included. Keys and values come from a tiny alphabet with 0x00 so that
// key ties, value ties and zero-padding collisions are common.
func TestQuickSortPairs(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		ps := make([]Pair, n)
		for i := range ps {
			ps[i] = Pair{Key: randBytes(r, 11), Value: randBytes(r, 3)}
		}
		checkSortPairs(t, ps)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randBytes returns up to max bytes over {0x00, 'a', 'b'}.
func randBytes(r *rand.Rand, max int) []byte {
	b := make([]byte, r.Intn(max+1))
	for i := range b {
		b[i] = "\x00ab"[r.Intn(3)]
	}
	return b
}

// fuzzPairs decodes fuzz input into pairs: each pair is a length byte
// (low nibble key length, high nibble value length, both capped to what
// remains) followed by the key and value bytes.
func fuzzPairs(data []byte) []Pair {
	var ps []Pair
	for len(data) > 0 {
		kn, vn := int(data[0]&0x0f), int(data[0]>>4)
		data = data[1:]
		kn = min(kn, len(data))
		k := data[:kn]
		data = data[kn:]
		vn = min(vn, len(data))
		ps = append(ps, Pair{Key: k, Value: data[:vn]})
		data = data[vn:]
	}
	return ps
}

// encodeFuzzPairs is fuzzPairs' inverse for keys under 16 bytes and values
// under 16 bytes.
func encodeFuzzPairs(ps []Pair) []byte {
	var b []byte
	for _, p := range ps {
		b = append(b, byte(len(p.Key))|byte(len(p.Value))<<4)
		b = append(b, p.Key...)
		b = append(b, p.Value...)
	}
	return b
}

func FuzzSortPairs(f *testing.F) {
	f.Add(encodeFuzzPairs(sortEdgePairs))
	f.Add(encodeFuzzPairs([]Pair{
		{Key: []byte("ab"), Value: []byte("1")},
		{Key: []byte("ab\x00"), Value: []byte("1")},
		{Key: []byte("ab"), Value: []byte("0")},
	}))
	f.Add(encodeFuzzPairs([]Pair{
		{Key: []byte("abcdefgh\x00"), Value: []byte("x")},
		{Key: []byte("abcdefgh"), Value: []byte("y")},
		{Key: []byte("abcdefgh"), Value: []byte("x")},
		{Key: []byte(""), Value: []byte("x")},
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		checkSortPairs(t, fuzzPairs(data))
	})
}

func TestMergeGroupYieldsEachKeyOnce(t *testing.T) {
	runs := [][]Pair{
		{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("3")}},
		{{Key: []byte("a"), Value: []byte("2")}},
	}
	var keys []string
	var sizes []int
	mergeGroup(runs, func(k []byte, vs [][]byte) {
		keys = append(keys, string(k))
		sizes = append(sizes, len(vs))
	})
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" || sizes[0] != 2 || sizes[1] != 1 {
		t.Fatalf("groups = %v %v", keys, sizes)
	}
}

// group is one (key, values) yield, copied out of the scratch values slice.
type group struct {
	key    string
	values []string
}

func collectMergeGroup(runs [][]Pair) []group {
	var gs []group
	mergeGroup(runs, func(k []byte, vs [][]byte) {
		g := group{key: string(k)}
		for _, v := range vs {
			g.values = append(g.values, string(v))
		}
		gs = append(gs, g)
	})
	return gs
}

// sortEverythingGroups is the reference reduce input: concatenate every
// run, sort the lot, and group adjacent equal keys.
func sortEverythingGroups(runs [][]Pair) []group {
	all := sortOracle(slices.Concat(runs...))
	var gs []group
	for i, p := range all {
		if i == 0 || !bytes.Equal(p.Key, all[i-1].Key) {
			gs = append(gs, group{key: string(p.Key)})
		}
		g := &gs[len(gs)-1]
		g.values = append(g.values, string(p.Value))
	}
	return gs
}

// The streaming merge→group yields the same keys, in the same order, with
// the same value sequences as sorting everything and grouping; the
// materializing merge yields the same sequence as the sort.
func TestMergeGroupMatchesSortEverything(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := trial % 21
		runs := make([][]Pair, k)
		for i := range runs {
			// Every fourth run is empty; keys repeat within and across runs.
			n := 0
			if r.Intn(4) != 0 {
				n = r.Intn(30)
			}
			run := make([]Pair, n)
			for j := range run {
				run[j] = Pair{Key: randBytes(r, 3), Value: randBytes(r, 2)}
			}
			runs[i] = sortOracle(run)
		}
		got, want := collectMergeGroup(runs), sortEverythingGroups(runs)
		if !slices.EqualFunc(got, want, func(a, b group) bool {
			return a.key == b.key && slices.Equal(a.values, b.values)
		}) {
			t.Fatalf("trial %d (k=%d): mergeGroup = %v, want %v", trial, k, got, want)
		}
		if merged := mergeSortedRuns(runs); !slices.EqualFunc(merged, sortOracle(slices.Concat(runs...)), pairBytesEqual) {
			t.Fatalf("trial %d (k=%d): mergeSortedRuns out of order", trial, k)
		}
	}
}

// Without a combiner every partition is gathered into a slice of exactly
// its length, and a map over ~1 MB of text allocates well under what the
// pointer-swapping sort and doubling emit slices cost (48.6 MB).
func TestExecMapExactPartitionsAndAllocation(t *testing.T) {
	for _, nred := range []int{1, 3} {
		spec := wcSpec([]string{"/x"}, "/o")
		spec.NumReduces = nred
		mo := ExecMap(spec, benchInput)
		for p, ps := range mo.Partitions {
			if cap(ps) != len(ps) {
				t.Errorf("%d reduces: partition %d has len %d cap %d", nred, p, len(ps), cap(ps))
			}
		}
	}
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random, so the allocation bound does not apply")
	}
	// A garbage collection can empty the scratch pools between two maps,
	// and the map after it regrows its scratch (~57 MB here); the bound is
	// on the steady state, so the best of three maps counts.
	spec := wcSpec([]string{"/x"}, "/o")
	ExecMap(spec, benchInput) // warm the scratch pools
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mo := ExecMap(spec, benchInput)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(mo)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best >= 32<<20 {
		t.Fatalf("ExecMap allocated %.1f MB, want < 32 MB", float64(best)/(1<<20))
	}
}

// Map tasks run on host worker goroutines that share the scratch pools;
// concurrent maps must each produce the single-threaded output.
func TestExecMapConcurrentPools(t *testing.T) {
	spec := wcSpec([]string{"/x"}, "/o")
	spec.NumReduces = 2
	spec.Combine = spec.Reduce
	inputs := make([][]byte, 6)
	want := make([]*MapOutput, len(inputs))
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte(fmt.Sprintf("w%d x y%d z\n", i, i%2)), 200+i*50)
		want[i] = ExecMap(spec, inputs[i])
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(inputs)
				mo := ExecMap(spec, inputs[i])
				for p := range mo.Partitions {
					if !slices.EqualFunc(mo.Partitions[p], want[i].Partitions[p], pairBytesEqual) {
						t.Errorf("worker %d input %d partition %d differs", g, i, p)
						return
					}
				}
				ExecReduce(spec, 0, []*MapOutput{mo, want[i]})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
