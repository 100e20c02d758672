package main

// A stdlib-only reader for the gzipped profile.proto that
// runtime/pprof writes, and the rule that charges each CPU sample to
// one layer. Only the fields attribution needs are decoded: sample
// types, samples, locations with their (possibly inlined) lines,
// functions and the string table.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

const internalPrefix = "ibcbench/internal/"

// cpuProfile is the decoded subset of one profile.
type cpuProfile struct {
	// sampleTypes holds (type, unit) string-table indexes per value slot.
	sampleTypes [][2]uint64
	samples     []profSample
	// locations maps a location id to its function ids, innermost
	// (inlined callee) first, as profile.proto orders Location.line.
	locations map[uint64][]uint64
	// functions maps a function id to its name's string-table index.
	functions map[uint64]uint64
	strings   []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []uint64
}

var errTruncated = errors.New("pprof: truncated message")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// walkFields calls fn for every field of one protobuf message: v holds
// a varint or fixed value, data a length-delimited payload.
func walkFields(msg []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(msg) > 0 {
		key, rest, err := readVarint(msg)
		if err != nil {
			return err
		}
		msg = rest
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, msg, err = readVarint(msg); err != nil {
				return err
			}
		case 1, 5:
			n := 8
			if key&7 == 5 {
				n = 4
			}
			if len(msg) < n {
				return errTruncated
			}
			for i := n - 1; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[n:]
		case 2:
			var n uint64
			if n, msg, err = readVarint(msg); err != nil {
				return err
			}
			if n > uint64(len(msg)) {
				return errTruncated
			}
			data, msg = msg[:n], msg[n:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendInts decodes one occurrence of a repeated integer field, which
// arrives packed (data) or as a single varint (v).
func appendInts(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, rest, err := readVarint(data)
		if err != nil {
			return nil, err
		}
		dst, data = append(dst, x), rest
	}
	return dst, nil
}

// parseProfile decodes a gzipped profile.proto.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &cpuProfile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err = walkFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var vt [2]uint64
			err := walkFields(data, func(num int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					vt[num-1] = v
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case 2: // sample: Sample{location_id=1, value=2}
			var s profSample
			err := walkFields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locations, err = appendInts(s.locations, v, data)
				case 2:
					s.values, err = appendInts(s.values, v, data)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: Location{id=1, line=4: Line{function_id=1}}
			var id uint64
			var funcs []uint64
			err := walkFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return walkFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case 5: // function: Function{id=1, name=2}
			var id, name uint64
			err := walkFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *cpuProfile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// attribution is one profile's CPU time split by layer, in the
// profile's own integer nanoseconds so the split adds up exactly.
type attribution struct {
	ByLayer map[string]int64
	TotalNS int64
	Samples int64
}

// attribute charges every sample to the layer of its innermost frame
// under ibcbench/internal (so encoding/json below ibc.getJSON is ibc and
// ed25519 below valkey.PubKey.Verify is valkey). Stacks with no such
// frame are the collector's own goroutines (gc) or other.
func attribute(p *cpuProfile) (attribution, error) {
	cpu, count := -1, -1
	for i, vt := range p.sampleTypes {
		switch p.str(vt[0]) {
		case "cpu":
			cpu = i
		case "samples":
			count = i
		}
	}
	if cpu < 0 {
		return attribution{}, errors.New("pprof: profile has no cpu sample type")
	}
	out := attribution{ByLayer: map[string]int64{}}
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return attribution{}, errors.New("pprof: sample has fewer values than sample types")
		}
		layer, gc := "", false
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				name := p.str(p.functions[fn])
				if l, ok := layerOfFunc(name); ok {
					layer = l
					break stack
				}
				gc = gc || isGCFrame(name)
			}
		}
		switch {
		case layer != "":
		case gc:
			layer = "gc"
		default:
			layer = "other"
		}
		ns := int64(s.values[cpu])
		out.ByLayer[layer] += ns
		out.TotalNS += ns
		if count >= 0 {
			out.Samples += int64(s.values[count])
		}
	}
	return out, nil
}

// layerOfFunc maps a symbol such as
// "ibcbench/internal/tendermint/consensus.(*Engine).onVote" to its
// layer "tendermint.consensus". Any package under the prefix gets its
// own name, known to the benchmark or not.
func layerOfFunc(name string) (string, bool) {
	rest, ok := strings.CutPrefix(name, internalPrefix)
	if !ok {
		return "", false
	}
	// Receivers and type arguments may contain dots and slashes of their
	// own; the package path ends before them.
	if i := strings.IndexAny(rest, "(["); i >= 0 {
		rest = rest[:i]
	}
	dot := strings.IndexByte(rest[strings.LastIndexByte(rest, '/')+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := rest[:strings.LastIndexByte(rest, '/')+1+dot]
	return strings.ReplaceAll(pkg, "/", "."), true
}

// isGCFrame reports the collector's entry points: background mark
// workers, assists, sweep and scavenge.
func isGCFrame(name string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*sweepLocked)"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
