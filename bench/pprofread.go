package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof writes:
// just enough to learn, for every CPU sample, the function names on its
// stack. Field numbers are from
// github.com/google/pprof/proto/profile.proto.

var errProto = errors.New("pprof: malformed profile")

// protoBuf walks one protobuf message.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped over.
func (p *protoBuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = errProto
	}
	return field, v, data, err
}

func (p *protoBuf) skip(n int) error {
	if len(p.b) < n {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// uints decodes a repeated uint64 field occurrence, packed or not.
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type profSample struct {
	locs  []uint64
	count int64
}

// readProfile returns every sample's stack as function names, leaf first,
// with the sample count (the profile's first value).
func readProfile(gz []byte) (stacks [][]string, counts []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	var samples []profSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string

	p := protoBuf{raw}
	for len(p.b) > 0 {
		field, _, data, err := p.next()
		if err != nil {
			return nil, nil, err
		}
		m := protoBuf{data}
		switch field {
		case 2: // Sample: location_id = 1, value = 2
			var s profSample
			var vals []uint64
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, v, d)
				case 2:
					vals, err = uints(vals, v, d)
				}
				if err != nil {
					return nil, nil, err
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var fns []uint64
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					line := protoBuf{d}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		stacks = append(stacks, stack)
		counts = append(counts, s.count)
	}
	return stacks, counts, nil
}

const internalPrefix = "quickstore/internal/"

// layerOf attributes one stack (leaf first) to a CPU layer: the leaf-most
// quickstore/internal/<pkg> frame, or else runtime, syscall or other by
// where the leaf itself is.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, l := range cpuLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	switch leaf := stack[0]; {
	case strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "runtime/") || strings.HasPrefix(leaf, "gcWriteBarrier"):
		return "runtime"
	case strings.HasPrefix(leaf, "syscall.") || strings.HasPrefix(leaf, "internal/runtime/syscall.") || strings.HasPrefix(leaf, "internal/poll."):
		return "syscall"
	}
	return "other"
}

// cpuShares returns each layer's share of the profile's samples; the shares
// sum to one. An empty profile (a window too short to be sampled) charges
// everything to "other".
func cpuShares(gz []byte) (map[string]float64, error) {
	stacks, counts, err := readProfile(gz)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for i, st := range stacks {
		shares[layerOf(st)] += float64(counts[i])
		total += float64(counts[i])
	}
	if total == 0 {
		return map[string]float64{"other": 1}, nil
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}
