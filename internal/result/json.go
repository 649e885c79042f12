package result

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// cellJSON is the wire form of a Cell: exactly one of s/i/f/b is present
// and selects the kind; prec, err and bound ride along when meaningful.
type cellJSON struct {
	S     *string  `json:"s,omitempty"`
	I     *int64   `json:"i,omitempty"`
	F     *float64 `json:"f,omitempty"`
	B     *bool    `json:"b,omitempty"`
	Prec  int8     `json:"prec,omitempty"`
	Err   float64  `json:"err,omitempty"`
	Bound string   `json:"bound,omitempty"`
}

// boundNames maps the annotation to its wire token (index = BoundKind).
var boundNames = [...]string{BoundNone: "", BoundUpper: "upper", BoundLower: "lower"}

// MarshalJSON implements the canonical cell encoding. Non-finite floats
// are rejected: measured probabilities and bounds are finite by
// construction, and NaN has no canonical JSON form.
func (c Cell) MarshalJSON() ([]byte, error) {
	var w cellJSON
	switch c.Kind {
	case KindString:
		// The pointer keeps the empty string present: a cell must carry
		// exactly one value key.
		w.S = &c.S
	case KindInt:
		w.I = &c.I
	case KindFloat:
		if math.IsNaN(c.F) || math.IsInf(c.F, 0) {
			return nil, fmt.Errorf("result: non-finite float cell %v", c.F)
		}
		w.F = &c.F
		w.Prec = c.Prec
	case KindBool:
		b := c.I != 0
		w.B = &b
	default:
		return nil, fmt.Errorf("result: unknown cell kind %d", c.Kind)
	}
	// Annotations only make sense on numeric cells, and the decoder
	// rejects them elsewhere — refuse to emit what could not be read
	// back (an asymmetry here would poison the store with objects that
	// every Get drops as corrupt).
	numeric := c.Kind == KindInt || c.Kind == KindFloat
	if c.Err != 0 {
		if !numeric {
			return nil, fmt.Errorf("result: uncertainty on non-numeric cell %+v", c)
		}
		if math.IsNaN(c.Err) || math.IsInf(c.Err, 0) {
			return nil, fmt.Errorf("result: non-finite cell uncertainty %v", c.Err)
		}
		w.Err = c.Err
	}
	if c.Bound != BoundNone {
		if !numeric {
			return nil, fmt.Errorf("result: bound annotation on non-numeric cell %+v", c)
		}
		if int(c.Bound) >= len(boundNames) {
			return nil, fmt.Errorf("result: unknown bound kind %d", c.Bound)
		}
		w.Bound = boundNames[c.Bound]
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the canonical cell encoding, rejecting cells
// that carry zero or several value keys, unknown keys (the envelope's
// DisallowUnknownFields cannot see inside a custom unmarshaler), or
// annotations on kinds that cannot carry them — a foreign object that
// would lose data on re-encoding must fail loudly, not round-trip
// differently.
func (c *Cell) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w cellJSON
	if err := dec.Decode(&w); err != nil {
		return err
	}
	set := 0
	for _, ok := range []bool{w.S != nil, w.I != nil, w.F != nil, w.B != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("result: cell %s carries %d value keys, want 1", data, set)
	}
	if w.Prec != 0 && w.F == nil {
		return fmt.Errorf("result: cell %s carries prec on a non-float value", data)
	}
	numeric := w.F != nil || w.I != nil
	if w.Err != 0 && !numeric {
		return fmt.Errorf("result: cell %s carries err on a non-numeric value", data)
	}
	if w.Bound != "" && !numeric {
		return fmt.Errorf("result: cell %s carries bound on a non-numeric value", data)
	}
	*c = Cell{Err: w.Err}
	switch {
	case w.S != nil:
		c.Kind, c.S = KindString, *w.S
	case w.I != nil:
		c.Kind, c.I = KindInt, *w.I
	case w.F != nil:
		c.Kind, c.F, c.Prec = KindFloat, *w.F, w.Prec
	case w.B != nil:
		c.Kind = KindBool
		if *w.B {
			c.I = 1
		}
	}
	switch w.Bound {
	case "":
		c.Bound = BoundNone
	case "upper":
		c.Bound = BoundUpper
	case "lower":
		c.Bound = BoundLower
	default:
		return fmt.Errorf("result: unknown bound annotation %q", w.Bound)
	}
	return nil
}

// tableJSON is the wire envelope of a Table. The schema version is part
// of the payload so a decoded file can be checked against the code that
// reads it.
type tableJSON struct {
	Schema  int      `json:"schema"`
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Claim   string   `json:"claim"`
	Columns []string `json:"columns"`
	Rows    [][]Cell `json:"rows"`
	Shape   string   `json:"shape"`
}

// CanonicalJSON returns the canonical byte encoding of the table:
// encoding/json over a fixed-field-order envelope, with floats in Go's
// shortest round-trip form. Equal tables produce equal bytes, which is
// the property the fingerprinted store relies on. Serving paths want
// the memoized EncodedJSON instead.
func (t *Table) CanonicalJSON() ([]byte, error) {
	d, err := t.Decoded()
	if err != nil {
		return nil, err
	}
	encodes.Add(1)
	return json.Marshal(tableJSON{
		Schema:  SchemaVersion,
		ID:      d.ID,
		Title:   d.Title,
		Claim:   d.Claim,
		Columns: d.Columns,
		Rows:    d.Rows,
		Shape:   d.Shape,
	})
}

// EncodeJSON writes the canonical encoding followed by a newline — the
// memoized wire bytes of EncodedJSON, so repeated writes of one table
// encode it once.
func (t *Table) EncodeJSON(w io.Writer) error {
	b, err := t.EncodedJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodeJSON reads one canonical table encoding, rejecting unknown
// fields and schema versions this code does not understand.
func DecodeJSON(r io.Reader) (*Table, error) {
	decodes.Add(1)
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var w tableJSON
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("result: decoding table: %w", err)
	}
	if w.Schema != SchemaVersion {
		return nil, fmt.Errorf("result: table has schema version %d, this code reads %d", w.Schema, SchemaVersion)
	}
	return &Table{
		ID:      w.ID,
		Title:   w.Title,
		Claim:   w.Claim,
		Columns: w.Columns,
		Rows:    w.Rows,
		Shape:   w.Shape,
	}, nil
}

// Equal reports whether two tables hold identical typed data. It is the
// semantic comparison scheduler and store tests assert with; because the
// canonical encoding is deterministic, Equal(a, b) iff their
// CanonicalJSON bytes match. A table whose typed fields do not decode
// equals nothing.
func (t *Table) Equal(o *Table) bool {
	a, errA := t.CanonicalJSON()
	b, errB := o.CanonicalJSON()
	return errA == nil && errB == nil && bytes.Equal(a, b)
}
