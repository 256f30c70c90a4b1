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

// layerOf maps a Go package to the layer its self time counts toward.
// container/heap is the event kernel's priority queue, so it counts to sim.
var layerOf = map[string]string{
	"umanycore/internal/sim":      "sim",
	"container/heap":              "sim",
	"umanycore/internal/machine":  "machine",
	"umanycore/internal/icn":      "icn",
	"umanycore/internal/rq":       "rq",
	"umanycore/internal/sched":    "sched",
	"umanycore/internal/stats":    "stats",
	"umanycore/internal/pdes":     "pdes",
	"umanycore/internal/fleet":    "fleet",
	"umanycore/internal/svcgraph": "svcgraph",
	"runtime":                     "go",
}

// funcPackage returns the package path of a symbol name such as
// "umanycore/internal/sim.(*Engine).Step".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func layerOfFunc(name string) string {
	pkg := funcPackage(name)
	if l, ok := layerOf[pkg]; ok {
		return l
	}
	if strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "go"
	}
	return "other"
}

// layerShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time, attributing every sample to the function
// it was executing (self time, inlined frames resolved to the innermost).
// A profile too short to hold a sample yields no shares.
func layerShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples []sample
		leafFn  = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string table index
		strs    []string
	)
	// profile.proto: 2 sample, 4 location, 5 function, 6 string_table.
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var locs []uint64
			var vals []int64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1 && b == nil:
					locs = append(locs, v)
				case f == 1:
					return packed(b, func(x uint64) { locs = append(locs, x) })
				case f == 2 && b == nil:
					vals = append(vals, int64(v))
				case f == 2:
					return packed(b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			// The last value is CPU nanoseconds; locs[0] is the leaf.
			samples = append(samples, sample{locs[0], vals[len(vals)-1]})
		case 4:
			var id, fn uint64
			seenLine := false
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !seenLine: // the first line is the innermost frame
					seenLine = true
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			leafFn[id] = fn
		case 5:
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := fnName[leafFn[s.loc]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		shares[layerOfFunc(name)] += float64(s.value)
		total += float64(s.value)
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

// protoFields walks one protobuf message, calling f with each field's
// number and either its scalar value (b == nil) or its bytes.
func protoFields(msg []byte, f func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

func packed(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(v)
		b = b[n:]
	}
	return nil
}
