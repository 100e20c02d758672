package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// pbuf encodes just enough protobuf to hand-build a profile.
type pbuf struct{ bytes.Buffer }

func (b *pbuf) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *pbuf) uint(num int, v uint64) {
	b.varint(uint64(num)<<3 | 0)
	b.varint(v)
}

func (b *pbuf) message(num int, data []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pbuf) packed(num int, vs ...uint64) {
	var inner pbuf
	for _, v := range vs {
		inner.varint(v)
	}
	b.message(num, inner.Bytes())
}

// profileBuilder assembles a CPU profile from function names, locations
// (function lists, innermost inlined callee first) and samples.
type profileBuilder struct {
	strings   []string
	index     map[string]uint64
	functions map[string]uint64
	body      pbuf
	nextLoc   uint64
}

func newProfileBuilder() *profileBuilder {
	b := &profileBuilder{index: map[string]uint64{}, functions: map[string]uint64{}}
	b.str("") // string_table[0] must be ""
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbuf
		m.uint(1, b.str(vt[0]))
		m.uint(2, b.str(vt[1]))
		b.body.message(1, m.Bytes())
	}
	return b
}

func (b *profileBuilder) str(s string) uint64 {
	if i, ok := b.index[s]; ok {
		return i
	}
	b.index[s] = uint64(len(b.strings))
	b.strings = append(b.strings, s)
	return b.index[s]
}

func (b *profileBuilder) function(name string) uint64 {
	if id, ok := b.functions[name]; ok {
		return id
	}
	id := uint64(len(b.functions) + 1)
	b.functions[name] = id
	var m pbuf
	m.uint(1, id)
	m.uint(2, b.str(name))
	b.body.message(5, m.Bytes())
	return id
}

// location adds one location; more than one name makes it an inlined,
// multi-line location.
func (b *profileBuilder) location(names ...string) uint64 {
	b.nextLoc++
	var m pbuf
	m.uint(1, b.nextLoc)
	m.uint(3, 0x1000+b.nextLoc) // address
	for i, name := range names {
		var line pbuf
		line.uint(1, b.function(name))
		line.uint(2, uint64(10+i))
		m.message(4, line.Bytes())
	}
	b.body.message(4, m.Bytes())
	return b.nextLoc
}

// sample adds one sample, leaf location first. Unpacked writes the
// repeated fields one varint at a time, the encoding proto2 writers use.
func (b *profileBuilder) sample(unpacked bool, count, ns uint64, locs ...uint64) {
	var m pbuf
	if unpacked {
		for _, l := range locs {
			m.uint(1, l)
		}
		m.uint(2, count)
		m.uint(2, ns)
	} else {
		m.packed(1, locs...)
		m.packed(2, count, ns)
	}
	b.body.message(2, m.Bytes())
}

func (b *profileBuilder) gzip(t *testing.T) []byte {
	t.Helper()
	body := b.body
	for _, s := range b.strings {
		body.message(6, []byte(s))
	}
	body.uint(12, 10_000_000) // period, a field the reader skips
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(body.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestAttributeHandBuiltProfile(t *testing.T) {
	b := newProfileBuilder()
	harness := b.location("main.runRep")
	jsonLeaf := b.location("encoding/json.Unmarshal")
	// ibc.getJSON inlined into app.DeliverTx: the inlined callee is the
	// innermost frame, so the time is ibc's, not app's.
	inlined := b.location("ibcbench/internal/ibc.(*Keeper).getJSON", "ibcbench/internal/app.(*App).DeliverTx")
	gcDrain := b.location("runtime.gcDrain")
	gcWorker := b.location("runtime.gcBgMarkWorker")
	verify := b.location("crypto/ed25519.Verify", "ibcbench/internal/valkey.PubKey.Verify")
	onVote := b.location("ibcbench/internal/tendermint/consensus.(*Engine).onVote")
	unknown := b.location("ibcbench/internal/newpkg.Do[go.shape.struct { ibcbench/internal/ibc.Packet }]")
	idle := b.location("runtime.mcall")
	assist := b.location("runtime.gcAssistAlloc")

	b.sample(false, 3, 30e6, jsonLeaf, inlined, harness) // ibc
	b.sample(false, 2, 20e6, gcDrain, gcWorker)          // gc-only stack
	b.sample(true, 5, 50e6, verify, onVote, harness)     // valkey, not its caller
	b.sample(false, 4, 40e6, onVote, harness)            // tendermint.consensus
	b.sample(false, 1, 10e6, unknown, harness)           // a package the benchmark does not name
	b.sample(false, 1, 10e6, idle)                       // other
	b.sample(false, 1, 5e6, assist, inlined, harness)    // an assist inside a layer stays with the layer

	p, err := parseProfile(b.gzip(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := attribute(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"ibc": 35e6, "gc": 20e6, "valkey": 50e6, "tendermint.consensus": 40e6, "newpkg": 10e6, "other": 10e6,
	}
	if len(got.ByLayer) != len(want) {
		t.Errorf("layers = %v, want %v", got.ByLayer, want)
	}
	var sum int64
	for layer, ns := range want {
		if got.ByLayer[layer] != ns {
			t.Errorf("%s = %d ns, want %d", layer, got.ByLayer[layer], ns)
		}
		sum += got.ByLayer[layer]
	}
	if got.TotalNS != sum || sum != 165e6 {
		t.Errorf("total = %d ns, layers sum to %d, want 165e6 for both", got.TotalNS, sum)
	}
	if got.Samples != 17 {
		t.Errorf("samples = %d, want 17", got.Samples)
	}
}

func TestParseProfileRejectsDamage(t *testing.T) {
	b := newProfileBuilder()
	b.sample(false, 1, 1e6, b.location("main.main"))
	good := b.gzip(t)
	if _, err := parseProfile(good[:len(good)/2]); err == nil {
		t.Error("truncated gzip stream parsed without error")
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("non-gzip input parsed without error")
	}
	// A length prefix that runs past the end of the message.
	var bad bytes.Buffer
	zw := gzip.NewWriter(&bad)
	zw.Write([]byte{2<<3 | 2, 0x7f, 1, 2, 3})
	zw.Close()
	if _, err := parseProfile(bad.Bytes()); err == nil {
		t.Error("overlong field parsed without error")
	}
}

func TestLayerOfFunc(t *testing.T) {
	for name, want := range map[string]string{
		"ibcbench/internal/sim.(*Scheduler).Tick.func1":             "sim",
		"ibcbench/internal/ibc/transfer.(*Module).OnRecvPacket":     "ibc.transfer",
		"ibcbench/internal/tendermint/votesig.(*Cache).Verify":      "tendermint.votesig",
		"ibcbench/internal/merkle.Hash.String":                      "merkle",
		"ibcbench/internal/metrics.Summarize[go.shape.float64]":     "metrics",
		"ibcbench/internal/topo.Deploy.func1":                       "topo",
		"ibcbench/bench.main":                                       "",
		"encoding/json.(*decodeState).object":                       "",
		"runtime.mallocgc":                                          "",
		"type:.eq.ibcbench/internal/metrics.PacketKey":              "",
		"ibcbench/internal/valkey.PubKey.Verify":                    "valkey",
		"ibcbench/internal/x.F[ibcbench/internal/tendermint/y.T.M]": "x",
	} {
		got, ok := layerOfFunc(name)
		if got != want || ok != (want != "") {
			t.Errorf("layerOfFunc(%q) = %q, %v; want %q", name, got, ok, want)
		}
	}
}
