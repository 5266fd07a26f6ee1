package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is a gzipped profile.proto message. Only the fields the
// per-package attribution needs are decoded: samples (location IDs, values
// and labels), locations (their line entries' function IDs), functions
// (name string indexes) and the string table.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2
	sampleLabel    = 3

	labelKey = 1
	labelStr = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

const internalPrefix = "mrapid/internal/"

// measuredLabel is the profile label clock.measured runs its phase under.
var measuredLabel = []string{"phase", "measured"}

// packageShares charges the CPU time of every profile sample taken in a
// measured phase (labelled measuredLabel) to the innermost
// mrapid/internal/<pkg> frame on its stack, so standard-library sort, bytes
// and allocation frames — GC assists included — count for the package that
// called them. Samples with no such frame go to "other" (runtime, the
// benchmark itself). It adds CPU seconds per package to secs.
func packageShares(profile []byte, secs map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		nanos  int64
		labels [][2]int64 // key and value string indexes
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location → function IDs, innermost first
		funcNames = map[uint64]int64{}    // function → string index
		strs      []string
	)
	err = fields(raw, func(field int, v uint64, msg []byte) error {
		switch field {
		case profSample:
			var s sample
			values := 0
			err := fields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case sampleLocation:
					s.locs = appendVarints(s.locs, v, b)
				case sampleValue:
					// A CPU profile's values are the sample count and its
					// CPU nanoseconds.
					for _, x := range appendVarints(nil, v, b) {
						if values == 1 {
							s.nanos = int64(x)
						}
						values++
					}
				case sampleLabel:
					var kv [2]int64
					err := fields(b, func(lf int, lv uint64, _ []byte) error {
						switch lf {
						case labelKey:
							kv[0] = int64(lv)
						case labelStr:
							kv[1] = int64(lv)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := fields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return fields(b, func(lf int, lv uint64, _ []byte) error {
						if lf == lineFunction {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	measured := func(labels [][2]int64) bool {
		for _, kv := range labels {
			if str(kv[0]) == measuredLabel[0] && str(kv[1]) == measuredLabel[1] {
				return true
			}
		}
		return false
	}
	for _, s := range samples {
		if !measured(s.labels) {
			continue
		}
		pkg := "other"
	stack:
		for _, loc := range s.locs { // leaf first
			for _, fn := range locFuncs[loc] { // inlined callee first
				if n := str(funcNames[fn]); strings.HasPrefix(n, internalPrefix) {
					rest := n[len(internalPrefix):]
					pkg = rest[:strings.IndexAny(rest+".", "./")]
					break stack
				}
			}
		}
		secs[pkg] += float64(s.nanos) / 1e9
	}
	return nil
}

// fields walks one protobuf message, calling fn with each field number and
// either its varint value or its length-delimited bytes.
func fields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// the field was encoded unpacked (b == nil), a packed run otherwise.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
