package mapreduce

import "sync"

// Scratch pools for the sort/merge/group hot path. Map and reduce
// computations run on host worker goroutines (see parallel.go), so the
// pools are sync.Pools rather than per-runtime free lists.
//
// Ownership discipline, which every call site follows:
//
//   - only provably-dead slices are put back: a map task's pre-sort emits
//     once its partitions are gathered, the sorted copy a combiner
//     consumed, a combiner's output once it is copied out, sort entries
//     once the gather is done, a runs table or merge heap once the merge
//     is done, a reduce result once it is encoded;
//   - retained data (MapOutput.Partitions, consolidated partitions,
//     encoded output) is allocated at its exact size and never drawn from
//     a pool; a reduce result is drawn from one, and a caller that keeps
//     it simply takes it out of the pool;
//   - slices are cleared before pooling so stale Key/Value headers do not
//     pin job data past its lifetime;
//   - a pooled slice too small for the request is dropped, not put back,
//     so the pools keep the capacity the workload actually needs. The
//     pre-sort emits, whose size is unknown up front, have a pool of their
//     own so a small combiner output never stands in for them.
var (
	emitScratch  slicePool[Pair]      // map emits, one slice per partition
	pairScratch  slicePool[Pair]      // sorted combiner input, combiner output, reduce result
	entryScratch slicePool[sortEntry] // sortPairs' entries
	runScratch   slicePool[[]Pair]    // run tables
	heapScratch  slicePool[headRun]   // merge heaps
	valScratch   slicePool[[]byte]    // one key's values during grouping
)

// slicePool recycles slices of one element type.
type slicePool[T any] struct{ pool sync.Pool }

// get returns an empty slice with at least the hinted capacity.
func (sp *slicePool[T]) get(capHint int) []T {
	if p, ok := sp.pool.Get().(*[]T); ok && cap(*p) >= capHint {
		return *p
	}
	return make([]T, 0, max(capHint, 64))
}

// put recycles a dead slice. The caller asserts nothing aliases it
// anymore.
func (sp *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	clear(s)
	s = s[:0]
	sp.pool.Put(&s)
}
