package main

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// protobuf, profile.proto). The benchmark only needs self time per
// function, so it decodes samples, locations, functions and the string
// table and ignores the rest; the standard library has no decoder and
// the module takes no dependencies.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// selfTime decodes a gzipped CPU profile and returns each leaf
// function's sampled CPU time in the profile's last sample value unit
// (nanoseconds for runtime/pprof CPU profiles), plus the total.
func selfTime(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2:
					return varints(v, b, func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			lines := 0
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost inlined frame
					lines++
					if lines > 1 {
						return nil
					}
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	self := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := "?"
		if i, ok := fnName[locFn[s.leaf]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		self[name] += s.value
		total += s.value
	}
	return self, total, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field number
// and either its varint value (wire type 0, b nil) or its bytes (wire
// type 2). Fixed-width fields are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field in either encoding: a single
// unpacked value (b nil) or a packed run.
func varints(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

// modulePrefix is the import path prefix of the program's own packages.
const modulePrefix = "gpufaas/internal/"

// layerOf names the layer a function's self time is charged to: the
// program's internal/<module> package, "bench" for this benchmark's own
// code, "runtime.map" and "runtime.gc_malloc" for the two runtime costs
// the per-layer table tracks, and "" for everything else.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations carry import paths in brackets
	}
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		return strings.TrimPrefix(pkg, modulePrefix)
	case pkg == "main":
		return "bench"
	case pkg == "internal/runtime/maps", pkg == "runtime" && hasAnyPrefix(fn, mapPrefixes):
		return "runtime.map"
	case pkg == "runtime" && hasAnyPrefix(fn, gcMallocPrefixes):
		return "runtime.gc_malloc"
	}
	return ""
}

// mapPrefixes are the runtime's map entry points and the key hashes
// they call (the swiss-table internals live in internal/runtime/maps).
var mapPrefixes = []string{
	"runtime.map", "runtime.strhash", "runtime.memhash", "runtime.aeshash",
}

// gcMallocPrefixes are the runtime's allocator and garbage-collector
// entry points: allocation, marking, sweeping, scavenging, write
// barriers and span/heap bookkeeping.
var gcMallocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.nextFreeFast", "runtime.memclrNoHeapPointers", "runtime.heapSetType",
	"runtime.gc", "runtime.scan", "runtime.grey", "runtime.mark", "runtime.findObject",
	"runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge", "runtime.deductSweepCredit",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.typePointers", "runtime.spanOf",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*mspan)",
	"runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.(*sweepLocked)", "runtime.(*pageAlloc)",
	"runtime.(*scavengerState)", "runtime.(*wbBuf)", "runtime.(*typePointers)",
}

func hasAnyPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerShares folds per-function self time into per-layer shares of
// the total.
func layerShares(self map[string]int64, total int64) map[string]float64 {
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	for fn, v := range self {
		if l := layerOf(fn); l != "" {
			out[l] += float64(v) / float64(total)
		}
	}
	return out
}
