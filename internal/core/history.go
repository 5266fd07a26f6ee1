package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"mrapid/internal/hdfs"
	"mrapid/internal/profiler"
)

// HistoryEntry records the outcome of the profiled executions of one job
// key. Elapsed, AvgMapCPU, AvgIn, and AvgOut are running means over all
// recorded runs (not last-run values — a single anomalous run used to
// overwrite the whole record and flip future mode decisions); Wins counts
// how often each mode won, and Winner is the majority vote.
type HistoryEntry struct {
	Job       string           `json:"job"`
	Winner    ModeKind         `json:"winner"`
	Elapsed   time.Duration    `json:"elapsed"`
	AvgMapCPU time.Duration    `json:"avg_map_cpu"`
	AvgIn     int64            `json:"avg_in"`
	AvgOut    int64            `json:"avg_out"`
	Runs      int              `json:"runs"`
	Wins      map[ModeKind]int `json:"wins,omitempty"`
}

// Welford is an online mean/variance accumulator (Welford's algorithm),
// the substrate of the calibrating estimator's per-class aggregates.
type Welford struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// Add folds one sample into the running aggregates.
func (w *Welford) Add(x float64) {
	w.N++
	d := x - w.Mean
	w.Mean += d / float64(w.N)
	w.M2 += d * (x - w.Mean)
}

// Std returns the sample standard deviation (0 with fewer than 2 samples).
func (w Welford) Std() float64 {
	if w.N < 2 {
		return 0
	}
	return math.Sqrt(w.M2 / float64(w.N-1))
}

// CV returns the coefficient of variation (Std/|Mean|). A zero mean with
// spread is reported as +Inf — never confident.
func (w Welford) CV() float64 {
	s := w.Std()
	if w.Mean == 0 {
		if s == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return s / math.Abs(w.Mean)
}

// ClassStats holds the online-calibrating estimator's aggregates for one
// workload class (a job-spec fingerprint family, JobSpec.ClassKey). The
// per-byte rates generalize across input sizes, so repeat and *similar*
// jobs — new names, new data — can be predicted without a speculative race.
type ClassStats struct {
	Class string `json:"class"`
	Runs  int    `json:"runs"`

	// Rate is map-function compute seconds per input byte (t^m / s^i) and
	// Sel is the map selectivity (s^o / s^i): together with a new job's
	// measured split size they reconstruct the Table I inputs of Eq. 2/3.
	Rate Welford `json:"rate"`
	Sel  Welford `json:"sel"`

	// Calib is the measured-elapsed / raw-model-estimate ratio of the
	// winning mode: the online correction for everything Equations 2 and 3
	// deliberately omit (AM dispatch, the reduce phase, queueing inside the
	// job). Predicted runtimes are the raw estimate scaled by this mean.
	Calib Welford `json:"calib"`

	// IntraCV aggregates the within-job coefficient of variation of map
	// compute time: a class whose individual runs are internally skewed is
	// less predictable than its across-run variance alone suggests.
	IntraCV Welford `json:"intra_cv"`

	DWins int `json:"d_wins"`
	UWins int `json:"u_wins"`
}

// History is the decision maker's execution-record store. The paper keys
// records by program identity — "based on the execution records of the same
// job, even if they were executed with different input data" — and persists
// them to HDFS so future submissions skip speculative execution. On top of
// the exact-match entries it keeps per-workload-class calibration aggregates
// (ClassStats) so the estimator can pre-decide jobs it has never seen under
// that exact key.
//
// Records returned by Entry, Entries, Class and Classes are read-only views:
// Save reuses each record's encoded form until Record, Observe, Load or
// Forget changes that record.
type History struct {
	entries recordSet[*HistoryEntry]
	classes recordSet[*ClassStats]

	// Confidence gate: a class predicts only after MinRuns observations
	// with across-run rate/selectivity CVs at most MaxCV and a mean
	// within-job map-compute CV at most MaxIntraCV. Below the gate the job
	// still races (and its outcome calibrates the class).
	MinRuns    int
	MaxCV      float64
	MaxIntraCV float64
}

// NewHistory returns an empty store with the default confidence gate.
func NewHistory() *History {
	return &History{
		entries:    newRecordSet[*HistoryEntry](),
		classes:    newRecordSet[*ClassStats](),
		MinRuns:    3,
		MaxCV:      0.25,
		MaxIntraCV: 0.75,
	}
}

// Record folds one finished run into the job key's running aggregates. The
// recorded Winner is the majority vote over all runs, ties going to the most
// recent winner — a mode keeps the crown only while it wins at least as often
// as the incumbent, so one anomalous run amid a streak cannot flip future
// mode decisions.
func (h *History) Record(job string, winner ModeKind, elapsed time.Duration, s profiler.Summary) {
	e, ok := h.entries.m[job]
	if !ok {
		e = &HistoryEntry{Job: job}
	}
	if e.Wins == nil {
		e.Wins = make(map[ModeKind]int)
	}
	e.Runs++
	n := time.Duration(e.Runs)
	e.Elapsed += (elapsed - e.Elapsed) / n
	e.AvgMapCPU += (s.AvgMapCPU - e.AvgMapCPU) / n
	e.AvgIn += (s.AvgIn - e.AvgIn) / int64(e.Runs)
	e.AvgOut += (s.AvgOut - e.AvgOut) / int64(e.Runs)
	e.Wins[winner]++
	if e.Winner == "" || e.Wins[winner] >= e.Wins[e.Winner] {
		e.Winner = winner
	}
	h.entries.put(job, e)
}

// Observe folds one finished run into its workload class's calibration
// aggregates. modelEst is the raw Eq. 2/3 estimate for the mode that ran,
// computed from the run's own measured sample — its ratio to the measured
// elapsed time is the calibration factor future predictions are scaled by.
func (h *History) Observe(class string, winner ModeKind, elapsed time.Duration, modelEst time.Duration, s profiler.Summary) {
	if class == "" || s.MapCount == 0 || s.AvgIn <= 0 {
		return
	}
	cs, ok := h.classes.m[class]
	if !ok {
		cs = &ClassStats{Class: class}
	}
	cs.Runs++
	cs.Rate.Add(s.AvgMapCPU.Seconds() / float64(s.AvgIn))
	cs.Sel.Add(float64(s.AvgOut) / float64(s.AvgIn))
	if s.AvgMapCPU > 0 {
		cs.IntraCV.Add(s.MapCPUStd.Seconds() / s.AvgMapCPU.Seconds())
	}
	if modelEst > 0 && elapsed > 0 {
		cs.Calib.Add(elapsed.Seconds() / modelEst.Seconds())
	}
	switch winner {
	case ModeDPlus:
		cs.DWins++
	case ModeUPlus:
		cs.UWins++
	}
	h.classes.put(class, cs)
}

// Class returns the calibration aggregates for a workload class, if any.
func (h *History) Class(class string) (*ClassStats, bool) {
	cs, ok := h.classes.m[class]
	return cs, ok
}

// Confident reports whether a class has converged enough to pre-decide a
// job without racing: enough runs, stable per-byte rate and selectivity
// across runs, and internally un-skewed maps.
func (h *History) Confident(class string) bool {
	cs, ok := h.classes.m[class]
	if !ok || cs.Runs < h.MinRuns {
		return false
	}
	return cs.Rate.CV() <= h.MaxCV && cs.Sel.CV() <= h.MaxCV && cs.IntraCV.Mean <= h.MaxIntraCV
}

// Winner returns the recorded majority mode for a job key, if any.
func (h *History) Winner(job string) (ModeKind, bool) {
	if e, ok := h.entries.m[job]; ok {
		return e.Winner, true
	}
	return "", false
}

// Entry returns the full record for a job key.
func (h *History) Entry(job string) (*HistoryEntry, bool) {
	e, ok := h.entries.m[job]
	return e, ok
}

// Entries returns every exact-match record, sorted by job key.
func (h *History) Entries() []*HistoryEntry { return h.entries.values() }

// Classes returns every workload-class aggregate, sorted by class key.
func (h *History) Classes() []*ClassStats { return h.classes.values() }

// Len reports the number of recorded job keys.
func (h *History) Len() int { return len(h.entries.m) }

// Forget removes a job's record (used by tests and by operators resetting a
// stale decision).
func (h *History) Forget(job string) { h.entries.remove(job) }

const (
	historyPath    = "/mrapid/history.json"
	historyTmpPath = historyPath + ".tmp"
)

// historySnapshot is the persisted schema (version 2): exact-match entries
// plus workload-class calibration aggregates. Version 1 snapshots were a
// bare JSON array of entries; Load still accepts them. Load decodes through
// this type; Save writes the same bytes incrementally (see encode).
type historySnapshot struct {
	Version int             `json:"version"`
	Jobs    []*HistoryEntry `json:"jobs"`
	Classes []*ClassStats   `json:"classes,omitempty"`
}

// Save serializes the store into HDFS (replacing any previous snapshot).
// The write itself is metadata-sized; like the paper's profile uploads it
// happens off the measured path, so it is staged costlessly.
//
// The replacement is atomic: the new snapshot is staged at a temporary
// name first and renamed over (a pure NameNode metadata operation), so at
// every instant either the old or the new snapshot is durable. The old
// delete-then-put sequence had a window where a crash lost the whole
// history.
func (h *History) Save(dfs *hdfs.DFS) error {
	data, err := h.encode()
	if err != nil {
		return fmt.Errorf("core: encoding history: %w", err)
	}
	if dfs.Exists(historyTmpPath) {
		if err := dfs.Delete(historyTmpPath); err != nil {
			return err
		}
	}
	if _, err := dfs.PutInstant(historyTmpPath, data, nil); err != nil {
		return err
	}
	// From here the new snapshot is durable at the temporary name; Load
	// falls back to it if a crash lands between the delete and the rename.
	if dfs.Exists(historyPath) {
		if err := dfs.Delete(historyPath); err != nil {
			return err
		}
	}
	return dfs.Rename(historyTmpPath, historyPath)
}

// Load restores a snapshot saved by Save. A missing snapshot yields an
// empty store, not an error; an interrupted Save is recovered from its
// staged temporary. Version-1 snapshots (a bare array, written before the
// running-aggregate schema) migrate transparently: their single recorded
// values seed the means and their run count seeds the winner's vote.
func (h *History) Load(dfs *hdfs.DFS) error {
	path := historyPath
	if !dfs.Exists(path) {
		if !dfs.Exists(historyTmpPath) {
			return nil
		}
		path = historyTmpPath
	}
	data, err := dfs.Contents(path)
	if err != nil {
		return err
	}
	var list []*HistoryEntry
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '[' {
		// Version 1: a bare entry array with last-run values.
		if err := json.Unmarshal(data, &list); err != nil {
			return fmt.Errorf("core: decoding history: %w", err)
		}
	} else {
		var snap historySnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("core: decoding history: %w", err)
		}
		list = snap.Jobs
		for _, cs := range snap.Classes {
			if cs != nil && cs.Class != "" {
				h.classes.put(cs.Class, cs)
			}
		}
	}
	for _, e := range list {
		if e.Wins == nil && e.Winner != "" {
			runs := e.Runs
			if runs <= 0 {
				runs = 1
			}
			e.Wins = map[ModeKind]int{e.Winner: runs}
		}
		h.entries.put(e.Job, e)
	}
	return nil
}

// encode renders the version-2 snapshot byte for byte as
// json.MarshalIndent(historySnapshot{...}, "", "  ") would. It re-encodes
// only the records changed since the previous Save and joins the cached
// fragments into one exactly sized buffer, so saving after every job costs
// the changed records plus a copy, not a reflective re-encode of the whole
// history.
func (h *History) encode() ([]byte, error) {
	const (
		head       = "{\n  \"version\": 2,\n  \"jobs\": "
		classesKey = ",\n  \"classes\": "
		tail       = "\n}"
	)
	jobs, err := h.entries.refresh()
	if err != nil {
		return nil, err
	}
	classes, err := h.classes.refresh()
	if err != nil {
		return nil, err
	}
	withClasses := len(h.classes.keys) > 0 // "classes" is omitempty
	size := len(head) + jobs + len(tail)
	if withClasses {
		size += len(classesKey) + classes
	}
	buf := make([]byte, 0, size)
	buf = append(buf, head...)
	buf = h.entries.appendArray(buf)
	if withClasses {
		buf = append(buf, classesKey...)
		buf = h.classes.appendArray(buf)
	}
	return append(buf, tail...), nil
}

// recordSet holds one kind of history record by key, together with what
// encode needs to rewrite it incrementally: the keys in sorted order and
// each record's indented JSON fragment as it appears in the snapshot.
// Every change to a record goes through put or remove, which drop that
// record's fragment.
type recordSet[T any] struct {
	m     map[string]T
	keys  []string          // the keys of m, sorted
	frags map[string][]byte // key → fragment; absent until re-encoded
}

func newRecordSet[T any]() recordSet[T] {
	return recordSet[T]{m: make(map[string]T), frags: make(map[string][]byte)}
}

// put stores (or re-stores after an in-place update) the record under key.
func (s *recordSet[T]) put(key string, v T) {
	if _, ok := s.m[key]; !ok {
		i, _ := slices.BinarySearch(s.keys, key)
		s.keys = slices.Insert(s.keys, i, key)
	}
	s.m[key] = v
	delete(s.frags, key)
}

func (s *recordSet[T]) remove(key string) {
	if i, ok := slices.BinarySearch(s.keys, key); ok {
		s.keys = slices.Delete(s.keys, i, i+1)
	}
	delete(s.m, key)
	delete(s.frags, key)
}

// values returns the records in key order.
func (s *recordSet[T]) values() []T {
	out := make([]T, len(s.keys))
	for i, k := range s.keys {
		out[i] = s.m[k]
	}
	return out
}

// Fragments sit one array level inside the snapshot object.
const (
	fragPrefix = "    "
	fragSep    = "\n" + fragPrefix
	arrayClose = "\n  ]"
)

// refresh encodes every record whose fragment is missing and returns the
// length appendArray will append.
func (s *recordSet[T]) refresh() (int, error) {
	if len(s.keys) == 0 {
		return len("[]"), nil
	}
	n := len("[") + len(arrayClose) + (len(s.keys)-1)*len(",")
	for _, k := range s.keys {
		frag, ok := s.frags[k]
		if !ok {
			var err error
			if frag, err = json.MarshalIndent(s.m[k], fragPrefix, "  "); err != nil {
				return 0, err
			}
			s.frags[k] = frag
		}
		n += len(fragSep) + len(frag)
	}
	return n, nil
}

// appendArray appends the records as the snapshot's JSON array, from the
// fragments refresh brought up to date.
func (s *recordSet[T]) appendArray(buf []byte) []byte {
	if len(s.keys) == 0 {
		return append(buf, "[]"...)
	}
	buf = append(buf, '[')
	for i, k := range s.keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, fragSep...)
		buf = append(buf, s.frags[k]...)
	}
	return append(buf, arrayClose...)
}
