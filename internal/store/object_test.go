package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/result"
)

// sealedSample is a real object: a table's wire bytes, sealed.
func sealedSample(t testing.TB) []byte {
	obj, err := Seal(tableFor("E3"))
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// sealBytes frames arbitrary bytes in the object layout TestSealLayout
// pins, for bodies no table could have.
func sealBytes(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append([]byte(objectMagic+hex.EncodeToString(sum[:])+"\n"), body...)
}

// TestSealLayout pins the object layout: one fixed-length header line
// carrying the body's SHA-256 in lowercase hex, then the wire bytes
// verbatim.
func TestSealLayout(t *testing.T) {
	wire := []byte(`{"schema":1,"id":"E3"}` + "\n")
	sum := sha256.Sum256(wire)
	want := "repro-object sha256=" + hex.EncodeToString(sum[:]) + "\n" + string(wire)
	tab, err := result.FromWire("E3", wire, sum)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Seal(tab); err != nil || string(got) != want {
		t.Fatalf("Seal = %q, %v; want %q", got, err, want)
	}
	if got := string(sealBytes(wire)); got != want {
		t.Fatalf("sealBytes = %q, want %q", got, want)
	}
	if len(want)-len(wire) != headerLen {
		t.Fatalf("header is %d bytes, headerLen says %d", len(want)-len(wire), headerLen)
	}
}

// FuzzUnseal drives the object decoder with arbitrary bytes. It must
// never panic; whatever it accepts carries a header checksum equal to
// the SHA-256 of the body it returns; sealing followed by Unseal
// round-trips any body; and flipping any byte of a sealed object turns
// it into a rejection, which every tier reports as a miss.
func FuzzUnseal(f *testing.F) {
	sealed := sealedSample(f)
	f.Add(sealed)
	f.Add(sealed[:headerLen])
	f.Add(sealed[:len(sealed)-1])
	f.Add(sealBytes(nil))
	f.Add([]byte{})
	f.Add([]byte("repro-object sha256="))
	f.Add([]byte(`{"checksum":"00","table":{"schema":1,"id":"E3"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if body, sum, err := Unseal(data); err == nil {
			if sum != sha256.Sum256(body) {
				t.Fatal("Unseal returned a checksum that is not its body's")
			}
			if got := string(data[len(objectMagic) : headerLen-1]); got != hex.EncodeToString(sum[:]) {
				t.Fatalf("accepted an object whose header checksum %q is not its body's", got)
			}
			if !bytes.Equal(data[headerLen:], body) {
				t.Fatal("accepted body is not the bytes after the header")
			}
			// The accepted body goes on to the prefix check; neither it
			// nor the deferred decode may panic.
			if tab, err := result.FromWire("E3", body, sum); err == nil {
				_, _ = tab.Decoded()
			}
		}
		// Bound the flip sweep: every position costs a checksum.
		if len(data) > 512 {
			data = data[:512]
		}
		obj := sealBytes(data)
		body, _, err := Unseal(obj)
		if err != nil || !bytes.Equal(body, data) {
			t.Fatalf("Seal/Unseal round trip: %q, %v; want %q", body, err, data)
		}
		mask := byte(0x01)
		if len(data) > 0 && data[0] != 0 {
			mask = data[0]
		}
		for i := range obj {
			obj[i] ^= mask
			if _, _, err := Unseal(obj); err == nil {
				t.Fatalf("flipping byte %d of a sealed object (mask %#x) was accepted", i, mask)
			}
			obj[i] ^= mask
		}
	})
}
