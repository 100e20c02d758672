package ibc_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ibcbench/internal/ibc"
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
// encoding/json with extra steps: the success ack costs its Result.
func TestParseAckReadsItsOwnBytesDirectly(t *testing.T) {
	raw := ibc.Acknowledgement{Result: []byte("AQ==")}.Bytes()
	if got := testing.AllocsPerRun(20, func() {
		if _, err := ibc.ParseAck(raw); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("ParseAck(%s) took %.0f allocations, want 1", raw, got)
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
