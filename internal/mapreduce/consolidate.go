package mapreduce

import (
	"mrapid/internal/topology"
	"mrapid/internal/trace"
)

// ShuffleProvider is the hook a node-level shuffle service (implemented by
// internal/shuffle) plugs into the runtime. When Runtime.Shuffle is non-nil,
// the ApplicationMasters register committed map outputs with the service and
// fetch consolidated per-(node, partition) results through it instead of
// issuing one FetchPartition per (map, partition).
type ShuffleProvider interface {
	// Register notes a committed map output with the service on its node.
	Register(spec *JobSpec, mo *MapOutput)

	// Forget withdraws an output (it was lost with its node, or its job
	// finished and the intermediate data is garbage).
	Forget(spec *JobSpec, mo *MapOutput)

	// Consolidate merges one node's committed outputs into a single
	// synthetic output (cross-task in-node combining when the job has a
	// combiner) and records the byte-reduction stats.
	Consolidate(spec *JobSpec, group []*MapOutput) *Consolidated

	// Fetch moves one consolidated partition to dst, charging the service's
	// merge/combine/compress cost model. done receives ErrOutputLost when
	// the source node died before — or while — the fetch ran; the AM then
	// falls back to per-map recovery for every member of the group.
	Fetch(parent trace.SpanID, spec *JobSpec, c *Consolidated, part int, dst *topology.Node, done func(error))

	// WireRatio estimates how the service scales the job's shuffled bytes
	// (post-combine, post-compress) relative to the raw map output — the
	// correction the Eq. 1/3 estimator applies to s^o.
	WireRatio(spec *JobSpec) float64
}

// Consolidated is one node's merged map outputs: Out is a synthetic
// MapOutput whose partitions hold the cross-task merged (and re-combined)
// pairs, so the reduce path consumes it exactly like a per-map output;
// Members are the real outputs it was built from, kept for the per-map
// fallback when the node dies before the consolidated fetch lands.
type Consolidated struct {
	Out     *MapOutput
	Members []*MapOutput
}

// GroupOutputsByNode partitions outputs into per-(node, boot-epoch) groups
// in first-appearance order, the deterministic unit the shuffle service
// consolidates. Outputs from different boot epochs of the same node never
// mix: an old-epoch output is already unavailable and must fail alone.
func GroupOutputsByNode(outputs []*MapOutput) [][]*MapOutput {
	type key struct {
		node  *topology.Node
		epoch int
	}
	index := make(map[key]int)
	var groups [][]*MapOutput
	for _, mo := range outputs {
		k := key{mo.Node, mo.NodeEpoch}
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], mo)
	}
	return groups
}

// ConsolidateGroup builds the synthetic output for one node's group: each
// partition is the k-way merge of the members' sorted runs, or, when the
// job has a combiner, that merge streamed through the combiner without
// being materialized. Pure computation — the shuffle service charges the
// virtual cost separately. Correctness rests on comparePairs breaking key
// ties by value: merging sorted runs in any grouping yields the same final
// sequence the reducer would have merged per map, so job output is
// byte-identical with or without consolidation.
func ConsolidateGroup(spec *JobSpec, group []*MapOutput) *Consolidated {
	if len(group) == 0 {
		panic("mapreduce: ConsolidateGroup needs a non-empty group")
	}
	if len(group) == 1 {
		// A single output needs no merge, and re-running the combiner over
		// already-combined data would only re-serialize identical values.
		return &Consolidated{Out: group[0], Members: group}
	}
	first := group[0]
	out := &MapOutput{
		Split:      first.Split,
		Node:       first.Node,
		NodeEpoch:  first.NodeEpoch,
		Partitions: make([][]Pair, spec.NumReduces),
		PartBytes:  make([]int64, spec.NumReduces),
	}
	out.InMemory = true
	for _, mo := range group {
		out.Records += mo.Records
		if !mo.InMemory {
			out.InMemory = false
		}
	}
	runs := runScratch.get(len(group))
	for p := 0; p < spec.NumReduces; p++ {
		runs = runs[:0]
		for _, mo := range group {
			runs = append(runs, mo.Partitions[p])
		}
		var merged []Pair
		if spec.Combine != nil {
			merged = combine(spec.Combine, runs)
		} else {
			merged = mergeSortedRuns(runs)
		}
		out.Partitions[p] = merged
		var n int64
		for _, pr := range merged {
			n += pr.Bytes()
		}
		out.PartBytes[p] = n
		out.TotalBytes += n
	}
	runScratch.put(runs)
	return &Consolidated{Out: out, Members: group}
}

// RawPartBytes sums the members' original (pre-consolidation) bytes for one
// partition — what the service merges on the source node.
func (c *Consolidated) RawPartBytes(part int) int64 {
	var n int64
	for _, mo := range c.Members {
		n += mo.PartBytes[part]
	}
	return n
}

// SpilledPartBytes sums the members' on-disk bytes for one partition: the
// service's disk read at the source. U+ in-memory outputs cost nothing to
// pick up.
func (c *Consolidated) SpilledPartBytes(part int) int64 {
	var n int64
	for _, mo := range c.Members {
		if !mo.InMemory {
			n += mo.PartBytes[part]
		}
	}
	return n
}

// ShuffleWireRatio reports how the attached shuffle service (if any) scales
// shuffled bytes relative to raw map output; 1 without a service. The
// speculative decision maker multiplies s^o by this so Equations 1 and 3
// price the post-combine, post-compress shuffle.
func (rt *Runtime) ShuffleWireRatio(spec *JobSpec) float64 {
	if rt.Shuffle == nil {
		return 1
	}
	return rt.Shuffle.WireRatio(spec)
}
