package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// virtual is one iteration's outcome on the virtual clock. Virtual time is
// deterministic, so every iteration of a seed — traced or not — must
// produce the same virtual, down to the last bit.
type virtual struct {
	latencies []float64            // per submission, arrival → client-observed completion
	perMode   map[string][]float64 // sweep latencies by mode column
	makespan  float64              // first arrival → last completion, summed over simulations
	slot      float64              // JobServer slot-seconds, summed over simulations
	hashes    []string             // per submission: output hash, or the failure
	attempted int
	failed    int
	failures  []string
}

func newVirtual() *virtual { return &virtual{perMode: map[string][]float64{}} }

// add records one finished job submission. It fails when it errored,
// missed the horizon, or produced wrong output (checkErr).
func (v *virtual) add(sub *submission, st *stack, checkErr error) {
	hash := ""
	if checkErr == nil {
		hash, checkErr = outputHash(st.dfs, sub.spec)
	}
	v.record(sub.spec.Name, sub.latency, hash, checkErr)
}

// record counts one submission with its latency and output hash, or as
// failed when err is set.
func (v *virtual) record(name string, latency float64, hash string, err error) {
	v.attempted++
	v.latencies = append(v.latencies, latency)
	if err != nil {
		v.failed++
		hash = "failed"
		v.failures = append(v.failures, fmt.Sprintf("%s: %v", name, err))
	}
	v.hashes = append(v.hashes, hash)
}

// fingerprint digests every virtual number and output hash exactly.
func (v *virtual) fingerprint() string {
	var b strings.Builder
	floats := func(name string, xs []float64) {
		b.WriteString(name)
		for _, x := range xs {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(math.Float64bits(x), 16))
		}
		b.WriteByte('\n')
	}
	floats("latency", v.latencies)
	modes := make([]string, 0, len(v.perMode))
	for m := range v.perMode {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	for _, m := range modes {
		floats("mode "+m, v.perMode[m])
	}
	floats("totals", []float64{v.makespan, v.slot, float64(v.attempted), float64(v.failed)})
	b.WriteString(strings.Join(v.hashes, " "))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// percentile is the nearest-rank p-quantile: the smallest sample with at
// least ⌈p·n⌉ samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median averages the two middle samples of an even-sized set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
