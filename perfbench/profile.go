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

// cpuProfile is the part of a runtime/pprof CPU profile the layer table
// needs: per sample, its CPU time, its stack (leaf first) and labels.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	ns     int64
	stack  []frame // leaf first, inlined frames expanded
	labels map[string]string
}

type frame struct {
	fn, file string
}

// parseProfile decodes a gzipped profile.proto with the standard
// library alone: the handful of message fields a CPU profile uses are
// read with a minimal protobuf wire decoder.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64
	}
	type function struct{ name, file uint64 }
	var (
		strs      []string
		valueType [][2]uint64 // (type, unit) string indexes
		rawS      []rawSample
		locs      = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs     = map[uint64]function{}
	)
	err = walk(raw, func(f, wt int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var vt [2]uint64
			err := walk(b, func(f, wt int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = v
				}
				return nil
			})
			valueType = append(valueType, vt)
			return err
		case 2: // sample
			var s rawSample
			err := walk(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = append(s.locs, uints(wt, v, b)...)
				case 2:
					s.values = append(s.values, uints(wt, v, b)...)
				case 3:
					var kv [2]uint64
					err := walk(b, func(f, wt int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			rawS = append(rawS, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return walk(b, func(f, wt int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var fn function
			err := walk(b, func(f, wt int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = v
				case 4:
					fn.file = v
				}
				return nil
			})
			funcs[id] = fn
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	nsIdx := -1
	for i, vt := range valueType {
		if str(vt[1]) == "nanoseconds" {
			nsIdx = i
		}
	}
	if nsIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample value")
	}
	p := &cpuProfile{}
	for _, rs := range rawS {
		if nsIdx >= len(rs.values) {
			continue
		}
		s := cpuSample{ns: int64(rs.values[nsIdx])}
		for _, l := range rs.locs {
			for _, fid := range locs[l] {
				fn := funcs[fid]
				s.stack = append(s.stack, frame{str(fn.name), str(fn.file)})
			}
		}
		if len(rs.labels) > 0 {
			s.labels = map[string]string{}
			for _, kv := range rs.labels {
				s.labels[str(kv[0])] = str(kv[1])
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// walk calls fn for every field of one protobuf message. Varint and
// fixed fields arrive in v, length-delimited ones in b.
func walk(msg []byte, fn func(field, wiretype int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(field, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// uints reads a repeated integer field in either encoding: one varint,
// or a packed run of varints.
func uints(wt int, v uint64, b []byte) []uint64 {
	if wt != 2 {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out, b = append(out, x), b[n:]
	}
	return out
}

// layerTimes buckets every sample's CPU time by its layer (see
// classify). The buckets add up to the profile's total.
func (p *cpuProfile) layerTimes() (byLayer map[string]int64, total int64) {
	byLayer = map[string]int64{}
	for _, s := range p.samples {
		byLayer[classify(s.stack)] += s.ns
		total += s.ns
	}
	return byLayer, total
}

// labelTimes sums sample time by the value of one profile label.
func (p *cpuProfile) labelTimes(key string) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		if v, ok := s.labels[key]; ok {
			out[v] += s.ns
		}
	}
	return out
}

// packageLayers are the repository packages that are layers of their
// own, named after the package.
var packageLayers = map[string]bool{
	"sm": true, "coalesce": true, "xbar": true, "cache": true, "memctrl": true,
	"core": true, "coordnet": true, "dram": true, "addrmap": true, "gpu": true,
	"stats": true, "workload": true, "sweep": true,
}

// sampledFiles are the sampled engine's own files; their samples form
// the "sampled" layer whatever package they sit in.
var sampledFiles = []string{"/internal/gpu/sampled.go", "/internal/sm/fastforward.go", "/internal/stats/ci.go"}

// classify names the layer of one stack. Walking from the leaf, the
// first frame that belongs to a layer decides: a sampled-engine file, a
// simulator or service package, JSON coding, networking, a Go map
// operation ("gomap"), or allocation and garbage collection ("gc").
// Other standard-library frames (math/rand, memmove, sort, ...) are
// charged to the nearest caller that decides; a stack with none is
// "other".
func classify(stack []frame) string {
	for _, f := range stack {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return "other"
}

// gcFuncs are the runtime entry points of allocation and collection.
var gcFuncs = map[string]bool{
	"runtime.mallocgc": true, "runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.gcStart": true,
	"runtime.markroot": true, "runtime.gcDrain": true,
}

// layerOf is the layer one frame decides, or "" for a frame that does
// not (a standard-library helper).
func layerOf(f frame) string {
	for _, sf := range sampledFiles {
		if strings.HasSuffix(f.file, sf) {
			return "sampled"
		}
	}
	pkg := packageOf(f.fn)
	if rest, ok := strings.CutPrefix(pkg, "dramlat/internal/"); ok {
		switch {
		case rest == "gddr5":
			return "dram"
		case strings.HasPrefix(rest, "sweepd"):
			return "sweepd"
		case packageLayers[rest]:
			return rest
		}
		return "other"
	}
	switch {
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" || pkg == "syscall":
		return "net"
	case pkg == "internal/runtime/maps" || strings.HasPrefix(f.fn, "runtime.map"):
		return "gomap"
	case gcFuncs[f.fn]:
		return "gc"
	}
	return ""
}

// packageOf returns the import path of a symbol such as
// "dramlat/internal/sm.(*SM).Tick" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
