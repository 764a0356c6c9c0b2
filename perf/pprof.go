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

// selfShares decodes a gzipped pprof CPU profile and returns each
// selfPackages bucket's share of the sampled CPU time, attributed to
// the innermost function of every sample (its self time).
func selfShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	col := len(p.sampleTypes) - 1 // CPU time follows the sample count
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			col = i
		}
	}
	shares := make(map[string]float64, len(selfPackages))
	for _, b := range selfPackages {
		shares[b] = 0
	}
	var total float64
	for _, s := range p.samples {
		if col < 0 || col >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		v := float64(s.values[col])
		name := ""
		if fns := p.locations[s.locs[0]]; len(fns) > 0 {
			name = p.str(p.functions[fns[0]])
		}
		shares[bucket(name)] += v
		total += v
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, nil
}

// bucket maps a profiled function name to its attribution bucket.
func bucket(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments of generic functions hold dots
	}
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	under := func(root string) bool { return pkg == root || strings.HasPrefix(pkg, root+"/") }
	switch {
	case strings.HasPrefix(pkg, "respin/internal/"):
		name := strings.ReplaceAll(strings.TrimPrefix(pkg, "respin/internal/"), "/", "_")
		for _, b := range selfPackages {
			if b == name {
				return b
			}
		}
	case under("encoding"):
		return "encoding"
	case under("crypto"):
		return "crypto"
	case under("net"):
		return "net"
	case under("runtime"), under("internal/runtime"):
		return "runtime"
	}
	return "other"
}

// profile holds the parts of a pprof profile.proto that self-time
// attribution needs.
type profile struct {
	sampleTypes []int64 // string index of each value column's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case fProfileSampleType:
			var typ int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				if num == fValueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s sample
			err := fields(data, func(num int, v uint64, packed []byte) error {
				switch num {
				case fSampleLocation:
					return varints(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return varints(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, line []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return fields(line, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its scalar value (varint and fixed wire types) or its bytes
// (length-delimited).
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field, which arrives either as one
// scalar (data nil) or packed into data.
func varints(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
