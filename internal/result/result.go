// Package result is the typed result model of the reproduction harness:
// every experiment produces a Table of typed cells (ints, floats with a
// printing precision, strings, booleans — optionally annotated with an
// uncertainty and a bound direction) instead of pre-formatted markdown
// strings.
//
// The typed data admits several views. Render writes the GitHub-flavoured
// markdown the repository has always emitted (byte-identical to the
// legacy string tables: the markdown view is lossy — it drops the
// uncertainty and bound annotations). CanonicalJSON is the
// machine-readable schema: a deterministic byte encoding (fixed field
// order, shortest round-trip float formatting) that downstream layers
// hash, cache on disk (internal/store), and serve over HTTP
// (cmd/bccserve). A store tier hands a table back as its verified wire
// bytes (FromWire), which decode to typed fields only on first use.
//
// Fingerprint names a table before it exists: it hashes the experiment
// id, the run parameters that determine the table's content (Seed,
// Quick — Workers is deliberately excluded, tables are bit-identical for
// every worker count), and the schema version. Equal fingerprints mean
// byte-equal canonical encodings, which is what makes the store a
// compute-once cache.
package result

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// SchemaVersion identifies the canonical encoding. Bump it whenever the
// JSON schema or the cell semantics change: the version participates in
// Fingerprint, so stale store entries miss instead of decoding wrongly.
const SchemaVersion = 1

// Kind discriminates the typed cell variants.
type Kind uint8

const (
	// KindString is free text (regime labels, composite annotations).
	KindString Kind = iota
	// KindInt is an exact integer (sizes, counts, round budgets).
	KindInt
	// KindFloat is a measured or predicted real, printed with Prec
	// decimals.
	KindFloat
	// KindBool is a verdict, rendered "yes"/"NO" like the legacy tables.
	KindBool
)

// BoundKind annotates a numeric cell with the direction of the paper
// bound it participates in.
type BoundKind uint8

const (
	// BoundNone marks a plain value.
	BoundNone BoundKind = iota
	// BoundUpper marks a theorem upper bound the measured value must stay
	// below.
	BoundUpper
	// BoundLower marks a lower bound the measured value must stay above.
	BoundLower
)

// Cell is one typed table cell. The zero value is the empty string cell.
// Cells are plain comparable values: rows can be compared with ==.
type Cell struct {
	// Kind selects which of S/I/F carries the value.
	Kind Kind
	// S is the string payload (KindString).
	S string
	// I is the integer payload (KindInt), and 0/1 for KindBool.
	I int64
	// F is the float payload (KindFloat).
	F float64
	// Prec is the number of printed decimals for KindFloat.
	Prec int8
	// Err is an optional symmetric uncertainty (±Err) on a numeric cell;
	// 0 means none. It is carried by the JSON encoding only — the
	// markdown view predates the annotation and stays byte-identical.
	Err float64
	// Bound is an optional bound-direction annotation, JSON-only like
	// Err.
	Bound BoundKind
}

// Str returns a string cell.
func Str(s string) Cell { return Cell{Kind: KindString, S: s} }

// Strf returns a string cell from a format string.
func Strf(format string, args ...any) Cell {
	return Str(fmt.Sprintf(format, args...))
}

// Int returns an integer cell.
func Int(v int) Cell { return Cell{Kind: KindInt, I: int64(v)} }

// Float returns a float cell with the harness' default 4-decimal
// printing precision.
func Float(v float64) Cell { return FloatPrec(v, 4) }

// FloatPrec returns a float cell printed with prec decimals.
func FloatPrec(v float64, prec int) Cell {
	return Cell{Kind: KindFloat, F: v, Prec: int8(prec)}
}

// Bool returns a verdict cell.
func Bool(b bool) Cell {
	c := Cell{Kind: KindBool}
	if b {
		c.I = 1
	}
	return c
}

// WithErr returns a copy of the cell annotated with uncertainty ±e.
func (c Cell) WithErr(e float64) Cell {
	c.Err = e
	return c
}

// WithBound returns a copy of the cell annotated with a bound direction.
func (c Cell) WithBound(b BoundKind) Cell {
	c.Bound = b
	return c
}

// String renders the cell the way the legacy string tables printed it:
// %d for ints, %.Precf for floats, yes/NO for verdicts, the text itself
// for strings. Annotations do not print here.
func (c Cell) String() string {
	switch c.Kind {
	case KindInt:
		return strconv.FormatInt(c.I, 10)
	case KindFloat:
		return strconv.FormatFloat(c.F, 'f', int(c.Prec), 64)
	case KindBool:
		if c.I != 0 {
			return "yes"
		}
		return "NO"
	default:
		return c.S
	}
}

// Table is one experiment's typed result. A table from a store tier
// (FromWire) holds only its ID until Decoded fills in the rest.
type Table struct {
	// ID is the experiment id (E1..E18).
	ID string
	// Title names the reproduced statement.
	Title string
	// Claim restates what the paper asserts.
	Claim string
	// Columns are the header cells.
	Columns []string
	// Rows are the typed data cells.
	Rows [][]Cell
	// Shape states the qualitative property that must hold and whether it
	// did.
	Shape string

	// enc memoizes the encoded views (EncodedJSON, EncodedMarkdown) and
	// the deferred decode. Tables are immutable once built, so each view
	// is computed at most once and then shared by every tier and every
	// response that holds the table pointer. The sync.Once values make
	// Table no longer copyable after first use — tables are handled by
	// pointer everywhere, which go vet's copylocks check now enforces.
	enc encoded
}

// AddRow appends a typed row.
func (t *Table) AddRow(cells ...Cell) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as GitHub-flavoured markdown — the legacy view
// of the typed data, byte-identical to what the pre-typed harness
// printed. When the typed fields do not decode it writes nothing and
// returns Decoded's error; errors from w are not reported.
func (t *Table) Render(w io.Writer) error {
	d, err := t.Decoded()
	if err != nil {
		return err
	}
	encodes.Add(1)
	fmt.Fprintf(w, "### %s — %s\n\n", d.ID, d.Title)
	fmt.Fprintf(w, "Paper claim: %s\n\n", d.Claim)
	fmt.Fprintf(w, "| %s |\n", strings.Join(d.Columns, " | "))
	seps := make([]string, len(d.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	cells := make([]string, 0, len(d.Columns))
	for _, row := range d.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, c.String())
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	}
	if d.Shape != "" {
		fmt.Fprintf(w, "\nShape: %s\n", d.Shape)
	}
	fmt.Fprintln(w)
	return nil
}
