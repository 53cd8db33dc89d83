package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A CPU profile as runtime/pprof writes it: gzip-compressed protobuf
// (github.com/google/pprof/proto/profile.proto). Only the fields needed
// to attribute samples to functions are decoded.

// stackSample is one profile sample: its function names from the leaf
// (innermost, inlined callees first) to the root, and its value.
type stackSample struct {
	frames []string
	count  int64 // samples
	nanos  int64 // CPU time
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("cpu profile: sample without count and time values")
		}
		ss := stackSample{count: s.values[0], nanos: s.values[1]}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				idx := funcNames[f]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("cpu profile: function %d names string %d of %d", f, idx, len(strs))
				}
				ss.frames = append(ss.frames, strs[idx])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// appendVarints appends a repeated varint field's values, which the
// encoder may write packed (one length-delimited run) or one per field.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const internalPrefix = "quiclab/internal/"

// Buckets for samples with no quiclab/internal frame.
const (
	bucketGC    = "runtime.gc"
	bucketOther = "runtime.other"
)

// bucketOf attributes a sample to the innermost quiclab/internal/<module>
// frame on its stack, so runtime work (a map lookup, an allocation)
// counts against the module that asked for it. Samples with no such
// frame are background garbage collection or everything else.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				return rest[:i]
			}
			return rest
		}
	}
	if anyFrame(frames, isGCFrame) {
		return bucketGC
	}
	return bucketOther
}

// isGCFrame reports a garbage-collector function: marking, assists,
// sweeping and scavenging.
func isGCFrame(f string) bool {
	switch f {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.(*sweepLocked).sweep", "runtime.markroot":
		return true
	}
	return strings.HasPrefix(f, "runtime.gc")
}

// isMapFrame reports Go map runtime code (classic maps and the Swiss
// tables under internal/runtime/maps).
func isMapFrame(f string) bool {
	return strings.HasPrefix(f, "runtime.map") || strings.HasPrefix(f, "internal/runtime/maps.")
}

func anyFrame(frames []string, pred func(string) bool) bool {
	for _, f := range frames {
		if pred(f) {
			return true
		}
	}
	return false
}

// cpuSplit is a profile's CPU attributed to buckets (exclusive: each
// sample counted exactly once) and to the cross-cutting map and GC views
// (a sample counts wherever such a frame appears on its stack).
type cpuSplit struct {
	samples  int64
	nanos    int64
	buckets  map[string]bucketCost
	mapNanos int64
	gcNanos  int64
}

type bucketCost struct {
	samples int64
	nanos   int64
}

func splitCPU(samples []stackSample) cpuSplit {
	s := cpuSplit{buckets: map[string]bucketCost{}}
	for _, smp := range samples {
		s.samples += smp.count
		s.nanos += smp.nanos
		name := bucketOf(smp.frames)
		b := s.buckets[name]
		b.samples += smp.count
		b.nanos += smp.nanos
		s.buckets[name] = b
		if anyFrame(smp.frames, isMapFrame) {
			s.mapNanos += smp.nanos
		}
		if anyFrame(smp.frames, isGCFrame) {
			s.gcNanos += smp.nanos
		}
	}
	return s
}

// accounted reports whether the buckets hold every sample exactly once.
func (s cpuSplit) accounted() bool {
	var n, ns int64
	for _, b := range s.buckets {
		n += b.samples
		ns += b.nanos
	}
	return n == s.samples && ns == s.nanos
}

// bucketNames returns the buckets by descending CPU time.
func (s cpuSplit) bucketNames() []string {
	names := make([]string, 0, len(s.buckets))
	for n := range s.buckets {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		bi, bj := s.buckets[names[i]], s.buckets[names[j]]
		if bi.nanos != bj.nanos {
			return bi.nanos > bj.nanos
		}
		return names[i] < names[j]
	})
	return names
}
