package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one CPU-profile sample: its call stack, leaf frame first,
// as fully qualified function names, and its weight in CPU nanoseconds.
type sample struct {
	stack []string
	value int64
}

// Layers of the per-layer split. Every sample lands in exactly one of
// them, so their shares sum to 100%. simHeap is not a layer of its own:
// it is the part of sim's self time spent in the event heap.
var modelLayers = []string{
	"sim", "cpu", "kern", "extent", "fusefs", "cephclient",
	"ipc", "unionfs", "cluster", "netsim", "workloads",
}

const (
	layerSched = "runtime.sched"
	layerGC    = "runtime.gc"
	layerOther = "other"
	simHeap    = "sim.heap"
)

// gcFrames mark a sample as garbage-collector work when any frame of its
// stack starts with one of them: background marking and sweeping, mark
// assists charged to allocating goroutines, and the write barrier.
var gcFrames = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.bgsweep", "runtime.sweepone",
	"runtime.(*sweepLocked)", "runtime.bgscavenge", "runtime.wbBuf", "runtime.bulkBarrier",
}

// schedFrames mark a runtime-leaf sample as goroutine hand-off cost: the
// channel operations a simulated process parks and resumes on, and the
// scheduler, locks and futexes underneath them.
var schedFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.schedule", "runtime.findRunnable",
	"runtime.park_m", "runtime.mcall", "runtime.execute", "runtime.gogo",
	"runtime.newproc", "runtime.goexit", "runtime.wakep", "runtime.startm",
	"runtime.stopm", "runtime.notesleep", "runtime.notewakeup", "runtime.futex",
	"runtime.lock", "runtime.unlock", "runtime.casgstatus", "runtime.runqget",
	"runtime.runqput", "runtime.semacquire", "runtime.semrelease", "runtime.mPark",
	"gogo",
}

// pkgOf returns the import path of a qualified function name, e.g.
// "repro/internal/sim" for "repro/internal/sim.(*Proc).park".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func anyFrameHasPrefix(stack []string, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// layerOf names the layer a sample's self time belongs to: the
// simulator module of its leaf frame, or for a runtime leaf the
// collector or the scheduler, by what the stack was doing.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return layerOther
	}
	leaf := pkgOf(stack[0])
	// Runtime assembly, such as gogo, appears without a package.
	if isRuntime(leaf) || !strings.Contains(stack[0], ".") {
		switch {
		case anyFrameHasPrefix(stack, gcFrames):
			return layerGC
		case anyFrameHasPrefix(stack, schedFrames):
			return layerSched
		}
		return layerOther
	}
	if mod, ok := strings.CutPrefix(leaf, "repro/internal/"); ok {
		for _, l := range modelLayers {
			if mod == l {
				return l
			}
		}
	}
	return layerOther
}

// attribute splits the samples' total weight by layer, as percentages.
// Every layer is present in the result, zero when it had no samples;
// simHeap is included as the event-heap part of sim.
func attribute(samples []sample) map[string]float64 {
	shares := map[string]float64{layerSched: 0, layerGC: 0, layerOther: 0, simHeap: 0}
	for _, l := range modelLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		v := float64(s.value)
		total += v
		l := layerOf(s.stack)
		shares[l] += v
		if l == "sim" && strings.Contains(s.stack[0], "eventHeap") {
			shares[simHeap] += v
		}
	}
	if total > 0 {
		for l := range shares {
			shares[l] = 100 * shares[l] / total
		}
	}
	return shares
}

// parseProfile decodes a gzipped pprof profile as written by
// runtime/pprof into samples weighted by their last value (CPU
// nanoseconds for a CPU profile). It reads only the fields it needs from
// the profile.proto wire format.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("open profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnNames = map[uint64]int64{}    // function id -> string-table index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}

	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnNames[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("decode profile: function name index %d out of range", idx)
				}
				stack = append(stack, strs[idx])
			}
		}
		out = append(out, sample{stack: stack, value: s.values[len(s.values)-1]})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf message")

// eachField walks the top-level fields of a protobuf message, handing
// fn the field number, wire type, and either the varint value or the
// length-delimited payload. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not (wire type 0), to dst.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
