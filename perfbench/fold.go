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

// layers are the modules the CPU profile is folded into, in report
// order. Each reports <layer>.self_ms; samples no layer owns fold into
// other.self_ms.
var layers = []string{
	"des", "network", "mobility", "georoute", "cluster", "core",
	"membership", "multicast", "route", "qos", "scenario", "runtime",
}

// layerOf maps simulator packages to the layer they report under;
// radio is part of the network layer. Simulator packages missing here
// (geometry, ID schemes, PRNG, statistics helpers) own no time of their
// own: their samples go to the nearest calling layer, as do samples in
// standard-library packages other than the runtime.
var layerOf = map[string]string{
	"des": "des", "network": "network", "radio": "network",
	"mobility": "mobility", "georoute": "georoute", "cluster": "cluster",
	"core": "core", "membership": "membership", "multicast": "multicast",
	"route": "route", "qos": "qos", "scenario": "scenario",
}

const simPrefix = "repro/internal/"

// funcLayer returns the layer that owns time spent in the named
// function, or "" when the sample belongs to its caller.
func funcLayer(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, simPrefix):
		return layerOf[strings.TrimPrefix(pkg, simPrefix)]
	}
	return ""
}

// funcPackage extracts the import path from a symbol name such as
// "repro/internal/network.(*Network).Broadcast". Receiver and type
// parameter lists are cut first: instantiated generics carry import
// paths of their own inside the brackets.
func funcPackage(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// fold attributes every sample of a gzipped pprof CPU profile to the
// innermost frame (inlined frames included) whose function a layer
// owns, and returns CPU milliseconds per layer, "other" included, plus
// the profile's total.
func fold(profile []byte) (map[string]float64, float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]float64{"other": 0}
	for _, l := range layers {
		out[l] = 0
	}
	var total float64
	for _, s := range p.samples {
		ms := float64(s.cpuNS) / 1e6
		total += ms
		owner := "other"
	stack:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if l := funcLayer(p.funcNames[fid]); l != "" {
					owner = l
					break stack
				}
			}
		}
		out[owner] += ms
	}
	return out, total, nil
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]string
}

type sample struct {
	locs  []uint64 // leaf first
	cpuNS int64
}

// parseProfile decodes the gzipped protocol-buffer form runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto), keeping
// samples, locations, functions and the string table.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]int64{}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // sample
			var s sample
			var vals []int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachPacked(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachPacked(wire, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) < 2 {
				return errors.New("profile: sample without a cpu value")
			}
			s.cpuNS = vals[1]
			p.samples = append(p.samples, s)
		case num == 4 && wire == 2: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case num == 5 && wire == 2: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
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
			funcNameIdx[id] = name
		case num == 6 && wire == 2: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx < 0 || idx >= int64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcNames[id] = strs[idx]
	}
	return p, nil
}

// eachField walks one protocol-buffer message, handing each field's
// number, wire type, and varint value or length-delimited bytes to f.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// eachPacked visits a repeated varint field in either encoding: one
// value per field, or packed into a length-delimited run.
func eachPacked(wire int, v uint64, b []byte, f func(uint64)) error {
	if wire == 0 {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		f(x)
		b = b[n:]
	}
	return nil
}
