package bench

import (
	"testing"

	"mrapid/internal/core"
	"mrapid/internal/profiler"
	"mrapid/internal/workloads"
	"mrapid/internal/yarn"
)

// The stock scheduler hands a heartbeating node every container it can
// hold, so a small job's maps pile onto the first nodes to heartbeat; D+'s
// balanced spread caps each node at its fair share of the job's maps.
func TestSchedulerAblationPlacement(t *testing.T) {
	const files = 8
	placement := func(v Variant) map[string]int {
		env, err := NewEnv(A3x4(), v)
		if err != nil {
			t.Fatal(err)
		}
		names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/wc", workloads.WordCountConfig{
			Files: files, FileBytes: 256 << 10, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.Run(v, workloads.WordCountSpec("abl", names, "/out", false))
		if err != nil {
			t.Fatal(err)
		}
		nodes := map[string]int{}
		for _, tp := range res.Profile.Tasks {
			if tp.Kind == profiler.MapTask {
				nodes[tp.Node]++
			}
		}
		t.Logf("%s: map placement %v", v.Name, nodes)
		return nodes
	}
	maxPerNode := func(nodes map[string]int) int {
		m := 0
		for _, n := range nodes {
			m = max(m, n)
		}
		return m
	}
	stock := placement(Variant{Name: "hadoop", NewScheduler: func() yarn.Scheduler { return yarn.NewStockScheduler() }, Mode: core.ModeHadoop})
	spread := placement(Variant{Name: "spread", NewScheduler: func() yarn.Scheduler {
		return core.NewDPlusScheduler(core.DPlusOptions{BalancedSpread: true})
	}, Mode: core.ModeHadoop})

	workers := A3x4().Workers
	fair := (files + workers - 1) / workers
	if len(spread) != workers || maxPerNode(spread) != fair {
		t.Errorf("balanced spread placed maps %v, want all %d workers with at most %d each", spread, workers, fair)
	}
	if maxPerNode(stock) <= fair {
		t.Errorf("stock placed maps %v, want some node above the fair share %d", stock, fair)
	}
}
