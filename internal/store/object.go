package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/result"
)

// objectMagic opens the header line of every stored object, in the disk
// store and in the shared bucket alike:
//
//	repro-object sha256=<64 lowercase hex digits>\n
//	<the table's wire bytes: canonical JSON plus a newline>
//
// The header is fixed-length, so reading an object back is a prefix
// compare and one SHA-256 of the body, with no parse.
const objectMagic = "repro-object sha256="

// headerLen is the length of the header line, newline included.
const headerLen = len(objectMagic) + 2*sha256.Size + 1

// Seal frames a table as a stored object: the checksum header line
// carrying the SHA-256 of its wire bytes, then the wire bytes verbatim.
// Both come from the table's memos (result.Table.EncodedJSON and
// Digest), so sealing a table that a tier read back or an earlier Put
// touched costs no encode and no hash.
func Seal(t *result.Table) ([]byte, error) {
	wire, err := t.EncodedJSON()
	if err != nil {
		return nil, err
	}
	sum, err := t.Digest()
	if err != nil {
		return nil, err
	}
	obj := make([]byte, 0, headerLen+len(wire))
	obj = append(obj, objectMagic...)
	obj = hex.AppendEncode(obj, sum[:])
	obj = append(obj, '\n')
	return append(obj, wire...), nil
}

// Unseal verifies a stored object and returns its body, the wire bytes
// Seal framed, as a subslice of obj, with the SHA-256 it was verified
// against. It fails on a malformed header and on a checksum that is not
// the lowercase hex SHA-256 of the body: a torn, truncated or damaged
// object, or one in another layout. Callers turn the failure into a
// miss, and hand body and sum to result.FromWire, which checks that the
// body is the requested table.
func Unseal(obj []byte) ([]byte, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	if len(obj) < headerLen || string(obj[:len(objectMagic)]) != objectMagic || obj[headerLen-1] != '\n' {
		return nil, sum, errors.New("store: object header malformed")
	}
	// One object has one spelling: hex.Decode also takes upper case.
	hexSum := obj[len(objectMagic) : headerLen-1]
	if _, err := hex.Decode(sum[:], hexSum); err != nil || bytes.ContainsAny(hexSum, "ABCDEF") {
		return nil, sum, errors.New("store: object header malformed")
	}
	body := obj[headerLen:]
	if err := result.VerifyDigest(body, sum); err != nil {
		return nil, sum, errors.New("store: object checksum mismatch")
	}
	return body, sum, nil
}

// tempPrefix names the temporary files WriteFileAtomic renames into
// place. Reads match exact object names, so a leftover temp file is
// invisible to them.
const tempPrefix = ".tmp-"

// WriteFileAtomic writes data to a temporary file in path's directory
// and renames it over path, so a reader — in this process or another
// sharing the directory — sees the old object or the new one, never a
// partial one. Both the disk store and the filesystem bucket write
// through it.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), tempPrefix+"*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// orphanTTL is how old a leftover temp file must be before
// SweepOrphans removes it. A crash mid-write leaves its temp file
// behind forever (the rename never happened), but a *young* temp file
// may be another process's in-flight write on a shared directory —
// deleting it would fail that writer's rename. An hour is far beyond
// any legitimate write's lifetime and far below "accumulating junk".
const orphanTTL = time.Hour

// SweepOrphans removes WriteFileAtomic temp files older than orphanTTL
// from dir — the debris of writers that crashed between CreateTemp and
// Rename. Failures are ignored file by file: the sweep is hygiene, not
// correctness, and on a shared volume another process's sweep may win
// the race.
func SweepOrphans(dir string) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-orphanTTL)
	for _, de := range des {
		if !strings.HasPrefix(de.Name(), tempPrefix) || de.IsDir() {
			continue
		}
		if info, err := de.Info(); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}
