package result

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// encodes counts raw encoding passes (CanonicalJSON marshals, Render
// walks) and decodes raw decoding passes (DecodeJSON, which Decoded
// uses), process-wide. The serving stack's contract is that a JSON
// cache hit performs neither, and its tests assert that by snapshotting
// both counters around a warmed traffic burst.
var encodes, decodes atomic.Uint64

// Encodes reports how many raw table encodings (canonical JSON or
// markdown) this process has performed. It only ever grows; tests
// compare two snapshots rather than resetting it.
func Encodes() uint64 { return encodes.Load() }

// Decodes reports how many raw table decodings this process has
// performed. Like Encodes, it only ever grows.
func Decodes() uint64 { return decodes.Load() }

// encoded memoizes a Table's encoded views and, for a table built by
// FromWire, the deferred decode of its typed fields. Tables are
// immutable once built (the repository-wide contract the fingerprinted
// store depends on), so each view is computed at most once and the
// bytes are shared by every caller thereafter.
type encoded struct {
	jsonOnce sync.Once
	json     []byte
	jsonErr  error

	mdOnce sync.Once
	md     []byte
	mdErr  error

	// wire is non-nil for a table built by FromWire.
	wire       []byte
	decodeOnce sync.Once
	decodeErr  error
}

// EncodedJSON returns the table's wire encoding — the canonical JSON
// followed by a newline, exactly the bytes EncodeJSON writes — computed
// once and shared. The returned slice is owned by the table: callers
// must not modify it or append to it. Safe for concurrent use.
func (t *Table) EncodedJSON() ([]byte, error) {
	t.enc.jsonOnce.Do(func() {
		b, err := t.CanonicalJSON()
		if err != nil {
			t.enc.jsonErr = err
			return
		}
		t.enc.json = append(b, '\n')
	})
	return t.enc.json, t.enc.jsonErr
}

// EncodedMarkdown returns the table's rendered markdown view, computed
// once and shared. Like EncodedJSON's result, the slice is owned by the
// table and must not be modified. The error is Decoded's: a table whose
// wire bytes do not decode has no markdown view. Safe for concurrent
// use.
func (t *Table) EncodedMarkdown() ([]byte, error) {
	t.enc.mdOnce.Do(func() {
		var buf bytes.Buffer
		if err := t.Render(&buf); err != nil {
			t.enc.mdErr = err
			return
		}
		t.enc.md = buf.Bytes()
	})
	return t.enc.md, t.enc.mdErr
}

// wireHead is the fixed opening CanonicalJSON gives every table at this
// schema version; the quoted id follows it.
var wireHead = []byte(fmt.Sprintf(`{"schema":%d,"id":`, SchemaVersion))

// FromWire wraps wire bytes — a table's EncodedJSON, read back by a
// store tier that verified their checksum — as the table with
// experiment id. It checks only that wire opens with this schema
// version and id and ends in a newline, and makes wire itself the
// EncodedJSON memo, so serving the table costs no encode; the typed
// fields wait for Decoded. The table keeps wire: callers must not
// modify it afterwards.
func FromWire(id string, wire []byte) (*Table, error) {
	quoted, err := json.Marshal(id)
	if err != nil {
		return nil, err
	}
	rest, ok := bytes.CutPrefix(wire, wireHead)
	if !ok || !bytes.HasPrefix(rest, quoted) || !bytes.HasSuffix(wire, []byte("\n")) {
		return nil, fmt.Errorf("result: wire bytes are not table %s at schema version %d", id, SchemaVersion)
	}
	t := &Table{ID: id}
	t.enc.wire = wire
	t.enc.json = wire
	t.enc.jsonOnce.Do(func() {})
	return t, nil
}

// Decoded is the accessor for t's typed fields (Title, Claim, Columns,
// Rows, Shape): it returns t with them filled in. A table built in
// process or by DecodeJSON already has them; a FromWire table decodes
// its wire bytes on the first call, and every call shares the outcome.
// Read the typed fields of any table that may have come from a store
// tier through it. Safe for concurrent use.
func (t *Table) Decoded() (*Table, error) {
	t.enc.decodeOnce.Do(func() {
		if t.enc.wire == nil {
			return
		}
		d, err := DecodeJSON(bytes.NewReader(t.enc.wire))
		if err == nil && d.ID != t.ID {
			err = fmt.Errorf("result: wire bytes decode to table %s, want %s", d.ID, t.ID)
		}
		if err != nil {
			t.enc.decodeErr = err
			return
		}
		t.Title, t.Claim, t.Columns, t.Rows, t.Shape = d.Title, d.Claim, d.Columns, d.Rows, d.Shape
	})
	if t.enc.decodeErr != nil {
		return nil, t.enc.decodeErr
	}
	return t, nil
}
