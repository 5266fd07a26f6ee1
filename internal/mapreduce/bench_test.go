package mapreduce

import (
	"bytes"
	"math/rand"
	"testing"
)

// benchInput builds ~1 MB of text once for the map benchmarks.
var benchInput = bytes.Repeat([]byte("alpha beta gamma delta epsilon zeta eta theta iota kappa\n"), 18_000)

// BenchmarkExecMap measures the real map execution hot path (scan, map,
// partition, sort), the dominant host cost of every experiment.
func BenchmarkExecMap(b *testing.B) {
	spec := wcSpec([]string{"/x"}, "/o")
	b.SetBytes(int64(len(benchInput)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo := ExecMap(spec, benchInput)
		if mo.Records == 0 {
			b.Fatal("no records")
		}
	}
}

// BenchmarkExecMapWithCombiner measures the same path with map-side
// combining enabled.
func BenchmarkExecMapWithCombiner(b *testing.B) {
	spec := wcSpec([]string{"/x"}, "/o")
	spec.Combine = spec.Reduce
	b.SetBytes(int64(len(benchInput)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExecMap(spec, benchInput)
	}
}

// BenchmarkExecReduce measures the reduce-side k-way merge and grouping
// over 8 pre-sorted map outputs.
func BenchmarkExecReduce(b *testing.B) {
	spec := wcSpec([]string{"/x"}, "/o")
	outputs := make([]*MapOutput, 8)
	for i := range outputs {
		outputs[i] = ExecMap(spec, benchInput)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ExecReduce(spec, 0, outputs); len(out) == 0 {
			b.Fatal("empty reduce")
		}
	}
}

// BenchmarkMergeGroup isolates the reduce-side k-way merge streamed into
// grouping over 16 pre-sorted map outputs.
func BenchmarkMergeGroup(b *testing.B) {
	spec := wcSpec([]string{"/x"}, "/o")
	runs := make([][]Pair, 16)
	for i := range runs {
		runs[i] = ExecMap(spec, benchInput).Partitions[0]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := 0
		mergeGroup(runs, func([]byte, [][]byte) { groups++ })
		if groups == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkSortPairsTeraKeys measures the sort on TeraSort's shape:
// uniformly random 10-byte keys, all distinct in practice, with 90-byte
// values — the opposite of WordCount's few, heavily duplicated keys.
func BenchmarkSortPairsTeraKeys(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src := make([]Pair, 100_000)
	for i := range src {
		kv := make([]byte, 100)
		r.Read(kv)
		src[i] = Pair{Key: kv[:10:10], Value: kv[10:]}
	}
	dst := make([]Pair, 0, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = sortPairs(dst[:0], src)
	}
}

// BenchmarkMapCacheFingerprint measures the cache key fingerprint on a
// 10 MB split.
func BenchmarkMapCacheFingerprint(b *testing.B) {
	data := bytes.Repeat(benchInput, 10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprint(data)
	}
}
