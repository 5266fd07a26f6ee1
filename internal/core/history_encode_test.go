package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mrapid/internal/profiler"
	"mrapid/internal/topology"
)

// historyOracle is the reference encoding the incremental encoder must
// reproduce byte for byte: one reflective MarshalIndent of the whole store.
func historyOracle(t *testing.T, h *History) []byte {
	t.Helper()
	data, err := json.MarshalIndent(historySnapshot{Version: 2, Jobs: h.Entries(), Classes: h.Classes()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func checkEncoding(t *testing.T, h *History, step string) {
	t.Helper()
	got, err := h.encode()
	if err != nil {
		t.Fatalf("%s: encode: %v", step, err)
	}
	if want := historyOracle(t, h); !bytes.Equal(got, want) {
		t.Fatalf("%s: incremental snapshot differs from MarshalIndent\n got: %s\nwant: %s", step, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: snapshot buffer sized %d for %d bytes", step, cap(got), len(got))
	}
	// After an encode the caches hold exactly the live records: a forgotten
	// key must not pin its fragment or linger in the key order.
	if !cachesExact(&h.entries) || !cachesExact(&h.classes) {
		t.Fatalf("%s: caches out of step: %d/%d keys and %d/%d fragments for %d/%d records", step,
			len(h.entries.keys), len(h.classes.keys), len(h.entries.frags), len(h.classes.frags),
			len(h.entries.m), len(h.classes.m))
	}
}

func cachesExact[T any](s *recordSet[T]) bool {
	if len(s.keys) != len(s.m) || len(s.frags) != len(s.m) || !slices.IsSorted(s.keys) {
		return false
	}
	for _, k := range s.keys {
		if _, ok := s.m[k]; !ok {
			return false
		}
	}
	return true
}

func TestHistoryEncodeEmpty(t *testing.T) {
	checkEncoding(t, NewHistory(), "empty")
}

func TestHistoryEncodeNoClasses(t *testing.T) {
	h := NewHistory()
	h.Record("wordcount", ModeDPlus, 20*time.Second, profilerSummary())
	h.Record("terasort", ModeUPlus, 7*time.Second, profilerSummary())
	if len(h.Classes()) != 0 {
		t.Fatal("setup: a class aggregate was recorded")
	}
	checkEncoding(t, h, "no classes")
}

// A seeded random interleaving of every mutator, checked against the oracle
// after each step, catches a fragment that outlives the change it encodes.
// Keys include characters MarshalIndent escapes.
func TestHistoryEncodeRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	jobs := []string{"wc", "ts", "q<1>", "a&b", "π", `quote"d`, "z"}
	classes := []string{"c1", "c2", "c<3>", "c4"}
	modes := []ModeKind{ModeDPlus, ModeUPlus}
	summary := func() profiler.Summary {
		return profiler.Summary{
			MapCount:  rng.Intn(3), // 0 makes Observe a no-op
			AvgMapCPU: time.Duration(rng.Int63n(int64(3 * time.Second))),
			MapCPUStd: time.Duration(rng.Int63n(int64(time.Second))),
			AvgIn:     rng.Int63n(64 << 20),
			AvgOut:    rng.Int63n(64 << 20),
		}
	}
	h := NewHistory()
	for i := 0; i < 400; i++ {
		var step string
		switch op := rng.Intn(10); {
		case op < 4:
			j := jobs[rng.Intn(len(jobs))]
			h.Record(j, modes[rng.Intn(2)], time.Duration(rng.Int63n(int64(time.Minute))), summary())
			step = "Record " + j
		case op < 8:
			c := classes[rng.Intn(len(classes))]
			h.Observe(c, modes[rng.Intn(2)], time.Duration(rng.Int63n(int64(time.Minute))),
				time.Duration(rng.Int63n(int64(time.Minute))), summary())
			step = "Observe " + c
		default:
			j := jobs[rng.Intn(len(jobs))]
			h.Forget(j)
			step = "Forget " + j
		}
		checkEncoding(t, h, fmt.Sprintf("op %d (%s)", i, step))
	}
}

// Load must drop the cached fragments of every key it replaces, for both
// snapshot versions, including keys merged into a store that already holds
// encoded records.
func TestHistoryEncodeAfterLoad(t *testing.T) {
	rt := newRuntime(t, topology.A3, 2, NewDPlusScheduler(FullDPlus()))
	h := NewHistory()
	h.Record("wordcount", ModeDPlus, 20*time.Second, profilerSummary())
	h.Record("other", ModeUPlus, 5*time.Second, profilerSummary())
	h.Observe("class-abc", ModeDPlus, 20*time.Second, 18*time.Second, profilerSummary())
	checkEncoding(t, h, "before load") // populates the fragment cache

	v1 := []byte(`[{"job": "wordcount", "winner": "uplus", "elapsed": 1, "runs": 9}]`)
	if _, err := rt.DFS.PutInstant(historyPath, v1, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Load(rt.DFS); err != nil {
		t.Fatal(err)
	}
	if e, _ := h.Entry("wordcount"); e.Runs != 9 {
		t.Fatalf("v1 load did not replace the entry: %+v", e)
	}
	checkEncoding(t, h, "after v1 load")

	// A v2 snapshot from another store replaces an entry and a class.
	src := NewHistory()
	src.Record("other", ModeDPlus, 40*time.Second, profilerSummary())
	for i := 0; i < 3; i++ {
		src.Observe("class-abc", ModeUPlus, 9*time.Second, 10*time.Second, profilerSummary())
	}
	if err := rt.DFS.Delete(historyPath); err != nil {
		t.Fatal(err)
	}
	if err := src.Save(rt.DFS); err != nil {
		t.Fatal(err)
	}
	if err := h.Load(rt.DFS); err != nil {
		t.Fatal(err)
	}
	if cs, _ := h.Class("class-abc"); cs.Runs != 3 {
		t.Fatalf("v2 load did not replace the class: %+v", cs)
	}
	checkEncoding(t, h, "after v2 load")
}

// Save persists exactly the oracle's bytes.
func TestHistorySaveMatchesOracle(t *testing.T) {
	rt := newRuntime(t, topology.A3, 2, NewDPlusScheduler(FullDPlus()))
	h := NewHistory()
	for i := 0; i < 5; i++ {
		h.Record(fmt.Sprintf("job-%d", i), ModeDPlus, time.Duration(i+1)*time.Second, profilerSummary())
		h.Observe("class-abc", ModeDPlus, 20*time.Second, 18*time.Second, profilerSummary())
		if err := h.Save(rt.DFS); err != nil {
			t.Fatal(err)
		}
		got, err := rt.DFS.Contents(historyPath)
		if err != nil {
			t.Fatal(err)
		}
		if want := historyOracle(t, h); !bytes.Equal(got, want) {
			t.Fatalf("save %d: persisted snapshot differs from MarshalIndent", i)
		}
	}
}
