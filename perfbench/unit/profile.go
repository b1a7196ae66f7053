package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
)

// packageSelfTime reads a runtime/pprof CPU profile and sums each
// sample's CPU time into one package: the nearest chopim/internal/*
// frame from the leaf (standard-library frames count toward their
// chopim caller), "runtime" for samples inside the garbage collector or
// the scheduler or with no chopim frame at all, and "bench" for the
// benchmark's own code. Values are seconds.
func packageSelfTime(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(b)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcName[fn]])
			}
		}
		out[attribute(frames)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// attribute names the package a leaf-first stack's sample counts toward.
func attribute(frames []string) string {
	for _, f := range frames {
		if isGCOrScheduler(f) {
			return "runtime"
		}
	}
	for _, f := range frames {
		pkg := funcPackage(f)
		if rest, ok := strings.CutPrefix(pkg, "chopim/internal/"); ok {
			return rest
		}
		if strings.HasPrefix(pkg, "chopim/") {
			return "bench"
		}
	}
	return "runtime"
}

func isGCOrScheduler(f string) bool {
	name, ok := strings.CutPrefix(f, "runtime.")
	if !ok {
		return false
	}
	for _, p := range []string{"gc", "bgsweep", "bgscavenge", "sweepone", "mcall", "schedule", "findRunnable", "park_m", "stopTheWorld", "startTheWorld"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbolized function name such
// as "chopim/internal/mc.(*Controller).Tick".
func funcPackage(f string) string {
	if i := strings.IndexByte(f, '['); i >= 0 {
		f = f[:i]
	}
	slash := strings.LastIndexByte(f, '/')
	if dot := strings.IndexByte(f[slash+1:], '.'); dot >= 0 {
		return f[:slash+1+dot]
	}
	return f
}

// profile holds the parts of a profile.proto message the attribution
// needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, leaf first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	nanos int64    // the CPU profile's second value (cpu/nanoseconds)
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := fields(msg, func(n int, v uint64, m []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, m)
				case 2:
					vals = appendPacked(vals, v, m)
				}
				return nil
			})
			if len(vals) >= 2 {
				s.nanos = int64(vals[1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(msg, func(n int, v uint64, m []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(m, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated varint field that arrived either
// unpacked (v) or packed (m).
func appendPacked(dst []uint64, v uint64, m []byte) []uint64 {
	if m == nil {
		return append(dst, v)
	}
	for len(m) > 0 {
		x, n := binary.Uvarint(m)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		m = m[n:]
	}
	return dst
}

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (nil for
// varints).
func fields(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 1:
			b = b[min(8, len(b)):]
		case 5:
			b = b[min(4, len(b)):]
		default:
			return errors.New("profile: bad wire type")
		}
	}
	return nil
}
