package result

import (
	"bytes"
	"crypto/sha256"
	"math"
	"strings"
	"sync"
	"testing"
)

func encodedTestTable() *Table {
	t := &Table{ID: "EX", Title: "encoded views", Claim: "memoized",
		Columns: []string{"n", "p", "ok"}, Shape: "holds"}
	t.AddRow(Int(64), Float(0.25).WithErr(0.01), Bool(true))
	t.AddRow(Int(128), FloatPrec(0.125, 6).WithBound(BoundUpper), Bool(false))
	return t
}

// TestEncodedJSONMatchesWireForm: EncodedJSON is exactly the canonical
// encoding plus the trailing newline — byte-identical to what
// EncodeJSON writes.
func TestEncodedJSONMatchesWireForm(t *testing.T) {
	tab := encodedTestTable()
	canonical, err := tab.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tab.EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := string(canonical) + "\n"; string(enc) != want {
		t.Fatalf("EncodedJSON = %q, want %q", enc, want)
	}
	var buf bytes.Buffer
	if err := tab.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), enc) {
		t.Fatal("EncodeJSON output differs from EncodedJSON")
	}
}

// TestEncodedMarkdownMatchesRender: the memoized markdown view is
// byte-identical to a direct Render.
func TestEncodedMarkdownMatchesRender(t *testing.T) {
	tab := encodedTestTable()
	var direct strings.Builder
	if err := tab.Render(&direct); err != nil {
		t.Fatal(err)
	}
	if got, err := tab.EncodedMarkdown(); err != nil || string(got) != direct.String() {
		t.Fatalf("EncodedMarkdown = %q, %v; want %q", got, err, direct.String())
	}
}

// TestEncodedViewsEncodeOnce: N reads of each view cost exactly one raw
// encode apiece — the memoize-the-immutable contract the serving hit
// path depends on.
func TestEncodedViewsEncodeOnce(t *testing.T) {
	tab := encodedTestTable()
	before := Encodes()
	var first []byte
	for i := 0; i < 50; i++ {
		b, err := tab.EncodedJSON()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b
		} else if &b[0] != &first[0] {
			t.Fatal("EncodedJSON returned a fresh slice on a repeat call")
		}
		if _, err := tab.EncodedMarkdown(); err != nil {
			t.Fatal(err)
		}
	}
	if got := Encodes() - before; got != 2 {
		t.Fatalf("50 reads of both views performed %d raw encodes, want 2", got)
	}
}

// TestEncodedViewsConcurrent hammers both views from many goroutines;
// under -race this is the memo's safety proof, and the encode count
// pins down exactly one computation per view.
func TestEncodedViewsConcurrent(t *testing.T) {
	tab := encodedTestTable()
	before := Encodes()
	want, err := tab.EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantMD, err := tab.EncodedMarkdown()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b, err := tab.EncodedJSON()
				if err != nil || !bytes.Equal(b, want) {
					panic("EncodedJSON diverged under concurrency")
				}
				if md, err := tab.EncodedMarkdown(); err != nil || !bytes.Equal(md, wantMD) {
					panic("EncodedMarkdown diverged under concurrency")
				}
			}
		}()
	}
	wg.Wait()
	if got := Encodes() - before; got != 2 {
		t.Fatalf("concurrent reads performed %d raw encodes, want 2", got)
	}
}

// TestEncodedJSONMemoizesError: an unencodable table (non-finite float)
// fails the same way on every call without re-attempting the encode.
func TestEncodedJSONMemoizesError(t *testing.T) {
	tab := &Table{ID: "BAD", Columns: []string{"x"}}
	tab.AddRow(Float(math.NaN()))
	if _, err := tab.EncodedJSON(); err == nil {
		t.Fatal("non-finite table encoded successfully")
	}
	before := Encodes()
	if _, err := tab.EncodedJSON(); err == nil {
		t.Fatal("second call lost the error")
	}
	if got := Encodes() - before; got != 0 {
		t.Fatalf("failed encode re-attempted %d times", got)
	}
}

// wireOf is the wire encoding of a fresh copy of encodedTestTable.
func wireOf(t *testing.T) []byte {
	t.Helper()
	wire, err := encodedTestTable().EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestFromWireServesWithoutCodec: a table wrapped from wire bytes
// serves those very bytes as its JSON view — no decode, no encode —
// and decodes its typed fields exactly once, on first typed use, into a
// table equal to the eagerly built one, with byte-identical markdown.
func TestFromWireServesWithoutCodec(t *testing.T) {
	wire := wireOf(t)
	eager := encodedTestTable()
	wantMD, err := eager.EncodedMarkdown()
	if err != nil {
		t.Fatal(err)
	}
	enc0, dec0 := Encodes(), Decodes()
	tab, err := FromWire("EX", wire, sha256.Sum256(wire))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.EncodedJSON()
	if err != nil || &got[0] != &wire[0] {
		t.Fatalf("EncodedJSON did not hand back the wire bytes (err %v)", err)
	}
	if tab.Rows != nil {
		t.Fatal("FromWire decoded the rows eagerly")
	}
	if enc, dec := Encodes()-enc0, Decodes()-dec0; enc != 0 || dec != 0 {
		t.Fatalf("wrapping and serving cost %d encodes, %d decodes; want 0, 0", enc, dec)
	}
	for i := 0; i < 3; i++ {
		md, err := tab.EncodedMarkdown()
		if err != nil || !bytes.Equal(md, wantMD) {
			t.Fatalf("markdown of the wire table = %q, %v; want %q", md, err, wantMD)
		}
		if d, err := tab.Decoded(); err != nil || len(d.Rows) != 2 || d.Shape != "holds" {
			t.Fatalf("Decoded = %+v, %v", d, err)
		}
	}
	if dec := Decodes() - dec0; dec != 1 {
		t.Fatalf("repeated typed reads decoded %d times, want 1", dec)
	}
	if !tab.Equal(eager) {
		t.Fatal("wire table differs from the eager one")
	}
}

// TestDigestIsMemoizedAndSeeded: a built table's Digest is the SHA-256
// of its wire bytes; a FromWire table's Digest is the sum its reader
// verified, handed back without hashing again (a sentinel sum that is
// not the bytes' hash proves nothing recomputed it); VerifyDigest
// accepts exactly the bytes' own hash.
func TestDigestIsMemoizedAndSeeded(t *testing.T) {
	wire := wireOf(t)
	if sum, err := encodedTestTable().Digest(); err != nil || sum != sha256.Sum256(wire) {
		t.Fatalf("Digest = %x, %v; want the SHA-256 of the wire bytes", sum, err)
	}
	sentinel := [sha256.Size]byte{1, 2, 3}
	tab, err := FromWire("EX", wire, sentinel)
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := tab.Digest(); err != nil || sum != sentinel {
		t.Fatalf("FromWire table Digest = %x, %v; want the seeded sum", sum, err)
	}
	if err := VerifyDigest(wire, sha256.Sum256(wire)); err != nil {
		t.Fatalf("VerifyDigest rejected the bytes' own hash: %v", err)
	}
	if err := VerifyDigest(wire, sentinel); err == nil {
		t.Fatal("VerifyDigest accepted a foreign sum")
	}
	bad := &Table{ID: "EX", Columns: []string{"x"}}
	bad.AddRow(Float(math.NaN()))
	if _, err := bad.Digest(); err == nil {
		t.Fatal("Digest of an unencodable table succeeded")
	}
}

// TestFromWireChecksPrefix: the wire bytes must open with this schema
// version and exactly the requested id, and end in the newline.
func TestFromWireChecksPrefix(t *testing.T) {
	wire := wireOf(t)
	other := bytes.Replace(wire, []byte(`"schema":1`), []byte(`"schema":2`), 1)
	for name, c := range map[string]struct {
		id   string
		wire []byte
	}{
		"other id":        {"EY", wire},
		"id prefix":       {"E", wire},
		"longer id":       {"EXX", wire},
		"other schema":    {"EX", other},
		"no newline":      {"EX", wire[:len(wire)-1]},
		"empty":           {"EX", nil},
		"not a table":     {"EX", []byte("\"junk\"\n")},
		"truncated head":  {"EX", wire[:5]},
		"leading garbage": {"EX", append([]byte(" "), wire...)},
	} {
		if _, err := FromWire(c.id, c.wire, sha256.Sum256(c.wire)); err == nil {
			t.Errorf("%s: FromWire accepted %q as %s", name, c.wire, c.id)
		}
	}
}

// TestDeferredDecodeFailureIsAnError: wire bytes that pass the prefix
// check but do not decode fail every typed read — markdown included —
// and never render an empty table.
func TestDeferredDecodeFailureIsAnError(t *testing.T) {
	for name, wire := range map[string]string{
		"truncated": `{"schema":1,"id":"EX","rows":[[{"i":` + "\n",
		"unknown":   `{"schema":1,"id":"EX","extra":true}` + "\n",
		"second id": `{"schema":1,"id":"EX","title":"t","id":"EY"}` + "\n",
		"bad cell":  `{"schema":1,"id":"EX","rows":[[{"i":1,"s":"x"}]]}` + "\n",
	} {
		tab, err := FromWire("EX", []byte(wire), sha256.Sum256([]byte(wire)))
		if err != nil {
			t.Fatalf("%s: prefix check rejected %q: %v", name, wire, err)
		}
		if _, err := tab.Decoded(); err == nil {
			t.Errorf("%s: Decoded accepted %q", name, wire)
		}
		if md, err := tab.EncodedMarkdown(); err == nil || md != nil {
			t.Errorf("%s: markdown %q, %v; want an error and no bytes", name, md, err)
		}
		var sb strings.Builder
		if err := tab.Render(&sb); err == nil || sb.Len() != 0 {
			t.Errorf("%s: Render wrote %q, %v; want an error and nothing", name, sb.String(), err)
		}
		if _, err := tab.CanonicalJSON(); err == nil {
			t.Errorf("%s: CanonicalJSON encoded an undecodable table", name)
		}
	}
}

// TestFromWireConcurrentFirstUse: goroutines racing on the first typed
// read of one wire table share a single decode and a single render, and
// all see the same fields; under -race this is the deferred decode's
// safety proof.
func TestFromWireConcurrentFirstUse(t *testing.T) {
	wire := wireOf(t)
	tab, err := FromWire("EX", wire, sha256.Sum256(wire))
	if err != nil {
		t.Fatal(err)
	}
	wantMD, err := encodedTestTable().EncodedMarkdown()
	if err != nil {
		t.Fatal(err)
	}
	enc0, dec0 := Encodes(), Decodes()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if d, err := tab.Decoded(); err != nil || len(d.Rows) != 2 || d.Title != "encoded views" {
					t.Errorf("Decoded = %+v, %v", d, err)
					return
				}
				if md, err := tab.EncodedMarkdown(); err != nil || !bytes.Equal(md, wantMD) {
					t.Errorf("EncodedMarkdown = %q, %v", md, err)
					return
				}
				if b, err := tab.EncodedJSON(); err != nil || !bytes.Equal(b, wire) {
					t.Errorf("EncodedJSON = %q, %v", b, err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if enc, dec := Encodes()-enc0, Decodes()-dec0; enc != 1 || dec != 1 {
		t.Fatalf("concurrent first use cost %d encodes and %d decodes, want 1 and 1", enc, dec)
	}
}
