package ibc_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ibcbench/internal/ibc"
	"ibcbench/internal/merkle"
)

// Acknowledgement is written with appends and read back without
// encoding/json when it is in that exact form. The hash of its bytes is
// the stored ack commitment and a relayer can submit any bytes at all,
// so both directions are held against encoding/json: same bytes out, and
// for arbitrary bytes in the same value and the same accept/reject.

var ackCases = []ibc.Acknowledgement{
	{},
	{Result: []byte("AQ==")}, // what transfer and pfm answer on success
	{Result: []byte{}},
	{Result: []byte{0}},
	{Result: []byte{0xfb, 0xff, 0xfe, 0x3e, 0x3f}}, // '+' and '/' in base64
	{Error: "transfer: malformed packet data"},
	{Error: `pfm: forward rejected: pfm: malformed forward memo: "{\"forward\":{\"receiver\":\"\"}}"`},
	{Error: "bank: insufficient funds: <escrow/transfer/channel-0> & more"},
	{Error: "line\u2028sep para\u2029sep tab\tnl\ncr\rbs\bff\fnul\x00esc\x1bdel\x7f"},
	{Error: "bad\xffutf8 \xc3 trunc\xe2\x80 café \U0001F600"},
	{Result: []byte("both"), Error: "and an error"},
}

// checkAckEncode holds Bytes against json.Marshal.
func checkAckEncode(t *testing.T, a ibc.Acknowledgement) []byte {
	t.Helper()
	want, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	got := a.Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("Bytes(%+v)\n got %s\nwant %s", a, got, want)
	}
	return got
}

// checkAckDecode holds ParseAck against json.Unmarshal.
func checkAckDecode(t *testing.T, raw []byte) {
	t.Helper()
	var want ibc.Acknowledgement
	wantErr := json.Unmarshal(raw, &want)
	got, err := ibc.ParseAck(raw)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ParseAck(%q) error = %v, json.Unmarshal error = %v", raw, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseAck(%q)\n got %#v\nwant %#v", raw, got, want)
	}
}

func TestAckCodecMatchesEncodingJSON(t *testing.T) {
	for _, a := range ackCases {
		checkAckDecode(t, checkAckEncode(t, a))
	}
	for _, raw := range []string{
		``, `{}`, ` {} `, `null`, `[]`, `{"result":"AQ=="}`, `{"result":"AQ=="} `, `{"result":"AQ=="}x`,
		`{"result":""}`, `{"result":null}`, `{"result":"AQ="}`, `{"result":"AQ"}`, `{"result":"A Q = ="}`,
		`{"result":"AQ\n=="}`, `{"result":"AQ` + "\n" + `=="}`, `{"result":"QVE9PQ==","error":""}`,
		`{"result":"AQ=="}`, `{"result":"AQ==","result":"Ag=="}`, `{"RESULT":"AQ==","Error":"e"}`,
		`{"error":"e","result":"AQ=="}`, `{"error":"e"}`, `{"error":"\/\b\f\n\r\t\"\\"}`, `{"error":"\x"}`,
		`{"error":"\ud800"}`, `{"error":"` + "\xff" + `"}`, `{"error":"caf` + "é" + `"}`, `{"error":1}`,
		`{"error":"e","extra":{"a":[1]}}`, `{"error":"e"`, `{"error":"e`, `{"error":"e\`, `{"result":"AQ==",}`,
	} {
		checkAckDecode(t, []byte(raw))
	}
}

// Bytes' own output must take the direct path, or the codec is
// encoding/json with extra steps: the success ack is the shared
// SuccessAck and costs nothing, any other ack costs its Result or Error.
func TestParseAckReadsItsOwnBytesDirectly(t *testing.T) {
	for _, c := range []struct {
		ack    ibc.Acknowledgement
		allocs float64
	}{
		{*ibc.SuccessAck, 0},
		{ibc.Acknowledgement{Result: []byte{0}}, 1},
		{ibc.Acknowledgement{Error: "transfer: malformed packet data"}, 1},
	} {
		raw := c.ack.Bytes()
		if got := testing.AllocsPerRun(20, func() {
			if _, err := ibc.ParseAck(raw); err != nil {
				t.Fatal(err)
			}
		}); got != c.allocs {
			t.Errorf("ParseAck(%s) took %.0f allocations, want %.0f", raw, got, c.allocs)
		}
	}
}

// The success ack's encoding and commitment are source literals; they
// must be what Bytes and hashAck compute, and ParseAck of them must give
// the shared value.
func TestSuccessAckLiterals(t *testing.T) {
	if got := ibc.SuccessAck.Bytes(); !bytes.Equal(got, ibc.SuccessAckBytes) {
		t.Fatalf("SuccessAck.Bytes() = %s, literal %s", got, ibc.SuccessAckBytes)
	}
	if got := ibc.HashAck(ibc.SuccessAck.Bytes()); !bytes.Equal(got, ibc.SuccessAckCommitment) {
		t.Fatalf("hashAck(success) = %x, literal %x", got, ibc.SuccessAckCommitment)
	}
	got, err := ibc.ParseAck(ibc.SuccessAckBytes)
	if err != nil || !got.Success() || &got.Result[0] != &ibc.SuccessAck.Result[0] {
		t.Fatalf("ParseAck(success) = %+v, %v; want the shared SuccessAck", got, err)
	}
}

func FuzzAckCodec(f *testing.F) {
	for _, a := range ackCases {
		f.Add(a.Result, a.Error, a.Bytes())
	}
	f.Add([]byte(nil), "", []byte(`{"result":"AQ\n=="} `))
	f.Fuzz(func(t *testing.T, result []byte, errText string, raw []byte) {
		checkAckDecode(t, checkAckEncode(t, ibc.Acknowledgement{Result: result, Error: errText}))
		checkAckDecode(t, raw)
	})
}

// The host objects SeedOpenEnd and updateClient store are written with
// appends. Their bytes are hashed into the app root, so they must be
// exactly json.Marshal's.

var clientStateCases = []ibc.ClientState{
	{},
	{ChainID: "ibc-0", LatestHeight: 7, Validators: []ibc.ValidatorRecord{}},
	{ChainID: "ibc-1", LatestHeight: 1, Validators: []ibc.ValidatorRecord{
		{PubKey: []byte{0xfb, 0xff, 0xfe, 0x3e, 0x3f}, Power: 10},
		{PubKey: nil, Power: -3},
		{PubKey: []byte{}, Power: 0},
	}},
	{ChainID: "q\"uote\\ <tag> &   \x00 bad\xff", LatestHeight: -1 << 63},
}

var consensusStateCases = []ibc.ConsensusState{
	{},
	{Root: merkle.Hash{0: 1, 31: 200}, Timestamp: 5 * time.Second},
	{Root: allBytes(0xff), Timestamp: -1},
	{Root: allBytes(0x80), Timestamp: -1 << 63},
}

// endCases are the strings of a connection and a channel end's fields.
var endCases = []string{"", "connection-0", "07-tendermint-12", "ics20-1", "q\"uote\\ <tag> &   \x00 bad\xff"}

func allBytes(b byte) (h merkle.Hash) {
	for i := range h {
		h[i] = b
	}
	return h
}

func checkStoredObjectCodecs(t *testing.T, cs ibc.ClientState, cons ibc.ConsensusState, conn ibc.ConnectionEnd, ch ibc.ChannelEnd) {
	t.Helper()
	for _, c := range []struct {
		v   any
		got []byte
	}{
		{cs, ibc.AppendClientState([]byte("prefix"), &cs)[len("prefix"):]},
		{cons, ibc.AppendConsensusState(nil, &cons)},
		{conn, ibc.AppendConnectionEnd([]byte("prefix"), &conn)[len("prefix"):]},
		{ch, ibc.AppendChannelEnd(nil, &ch)},
	} {
		want, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Fatalf("encoding %#v\n got %s\nwant %s", c.v, c.got, want)
		}
	}
}

// ends builds a connection and a channel end of the given state and
// ordering whose string fields take strs in turn, round-robin.
func ends(state, order byte, strs ...string) (ibc.ConnectionEnd, ibc.ChannelEnd) {
	at := func(i int) string { return strs[i%len(strs)] }
	return ibc.ConnectionEnd{State: ibc.HandshakeState(state), ClientID: at(0), CounterpartyConnID: at(1), CounterpartyClientID: at(2)},
		ibc.ChannelEnd{State: ibc.HandshakeState(state), Ordering: ibc.Order(order), CounterpartyPort: at(3),
			CounterpartyChan: at(4), ConnectionID: at(5), Version: at(6)}
}

func TestStoredObjectCodecsMatchEncodingJSON(t *testing.T) {
	for i, cs := range clientStateCases {
		for j, cons := range consensusStateCases {
			conn, ch := ends(byte(3*i), byte(255-j), endCases[(i+j)%len(endCases):]...)
			checkStoredObjectCodecs(t, cs, cons, conn, ch)
		}
	}
}

// FuzzStoredObjectCodecs builds a client state with one validator per
// fuzzed key (nil when the key's first byte is odd), a consensus state
// whose root is the fuzzed bytes padded or cut to 32, and a connection
// and a channel end whose strings are the chain ID and the two fuzzed
// strings in turn.
func FuzzStoredObjectCodecs(f *testing.F) {
	f.Add("ibc-0", int64(7), false, []byte("key-one"), []byte{0, 1, 2}, int64(10), []byte{}, int64(5e9), byte(3), byte(1), "connection-0", "ics20-1")
	f.Add("\x00\xff ", int64(-1), true, []byte{1}, []byte(nil), int64(-1), bytes.Repeat([]byte{0xff}, 40), int64(-1), byte(0), byte(255), "", "<&>\\")
	f.Fuzz(func(t *testing.T, chainID string, height int64, nilVals bool, key1, key2 []byte, power int64, root []byte, ts int64, state, order byte, s1, s2 string) {
		cs := ibc.ClientState{ChainID: chainID, LatestHeight: height}
		if !nilVals {
			cs.Validators = []ibc.ValidatorRecord{}
			for i, k := range [][]byte{key1, key2} {
				if len(k) > 0 && k[0]%2 == 1 {
					k = nil
				}
				cs.Validators = append(cs.Validators, ibc.ValidatorRecord{PubKey: k, Power: power - int64(i)})
			}
		}
		cons := ibc.ConsensusState{Timestamp: time.Duration(ts)}
		copy(cons.Root[:], root)
		conn, ch := ends(state, order, chainID, s1, s2)
		checkStoredObjectCodecs(t, cs, cons, conn, ch)
	})
}
