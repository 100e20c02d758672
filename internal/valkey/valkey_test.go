package valkey

import (
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

func TestDeriveDeterministic(t *testing.T) {
	a := Derive("chain-a", 0)
	b := Derive("chain-a", 0)
	if a.Pub().Address() != b.Pub().Address() {
		t.Fatal("same derivation inputs produced different keys")
	}
	c := Derive("chain-a", 1)
	d := Derive("chain-b", 0)
	if a.Pub().Address() == c.Pub().Address() || a.Pub().Address() == d.Pub().Address() {
		t.Fatal("distinct derivation inputs collided")
	}
}

func TestSignVerify(t *testing.T) {
	k := Derive("chain-a", 3)
	msg := []byte("vote for block 7")
	sig := k.Sign(msg)
	if !k.Pub().Verify(msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if k.Pub().Verify([]byte("vote for block 8"), sig) {
		t.Fatal("signature verified for wrong message")
	}
	other := Derive("chain-a", 4)
	if other.Pub().Verify(msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
	sig[0] ^= 0xff
	if k.Pub().Verify(msg, sig) {
		t.Fatal("tampered signature verified")
	}
}

func TestPubKeyRoundTrip(t *testing.T) {
	k := Derive("chain-a", 9)
	raw := k.Pub().Bytes()
	pk, err := PubKeyFromBytes(raw)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if pk.Address() != k.Pub().Address() {
		t.Fatal("round-tripped key has different address")
	}
	msg := []byte("m")
	if !pk.Verify(msg, k.Sign(msg)) {
		t.Fatal("round-tripped key cannot verify")
	}
	if _, err := PubKeyFromBytes([]byte("short")); err == nil {
		t.Fatal("accepted malformed key bytes")
	}
}

func TestSizes(t *testing.T) {
	k := Derive("chain-a", 0)
	if n := len(k.Sign([]byte("m"))); n != 64 {
		t.Fatalf("signature length = %d, want 64", n)
	}
	if n := len(k.Pub().Bytes()); n != 32 {
		t.Fatalf("public key length = %d, want 32", n)
	}
}

// TestSignGolden pins the scheme: SHA-512 over the derivation seed and
// the message, so a change to either shows here before it moves every
// block and header hash.
func TestSignGolden(t *testing.T) {
	const want = "03e978bea36d23a95dbc2645196dae6543583ff3f4b60f79f01bd247195670e8" +
		"2f45567280f73386f36af6b2f2d8eabf3de710472d19e1301b4ae19fa66c4490"
	if got := hex.EncodeToString(Derive("chain-a", 0).Sign([]byte("m"))); got != want {
		t.Fatalf("Sign = %s\nwant   %s", got, want)
	}
}

func TestUnderivedKeyVerifiesNothing(t *testing.T) {
	k := Derive("chain-a", 5)
	msg := []byte("m")
	sig := k.Sign(msg)
	raw := k.Pub().Bytes()
	raw[0] ^= 0xff
	pk, err := PubKeyFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if pk.Verify(msg, sig) {
		t.Fatal("a key Derive never produced verified a signature")
	}
	if (PubKey{}).Verify(msg, sig) {
		t.Fatal("the zero key verified a signature")
	}
}

// TestConcurrentDeriveVerify derives and verifies on many goroutines at
// once, as parallel deployments do; run it under -race.
func TestConcurrentDeriveVerify(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			chain := fmt.Sprintf("race-%d", g)
			for i := 0; i < 50; i++ {
				k := Derive(chain, i)
				msg := []byte(chain)
				if !k.Pub().Verify(msg, k.Sign(msg)) {
					t.Errorf("%s/%d: own signature rejected", chain, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAddressString(t *testing.T) {
	a := Derive("c", 0).Pub().Address()
	if len(a.String()) != 40 {
		t.Fatalf("address hex length = %d", len(a.String()))
	}
}
