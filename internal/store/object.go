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

// Seal frames a table's wire bytes (result.Table.EncodedJSON) as a
// stored object: the checksum header line, then wire verbatim.
func Seal(wire []byte) []byte {
	sum := sha256.Sum256(wire)
	obj := make([]byte, 0, headerLen+len(wire))
	obj = append(obj, objectMagic...)
	obj = hex.AppendEncode(obj, sum[:])
	obj = append(obj, '\n')
	return append(obj, wire...)
}

// Unseal verifies a stored object and returns its body, the wire bytes
// Seal framed, as a subslice of obj. It fails on a malformed header and
// on a checksum that is not the lowercase hex SHA-256 of the body: a
// torn, truncated or damaged object, or one in another layout. Callers
// turn the failure into a miss. Checking that the body is the requested
// table is result.FromWire's job.
func Unseal(obj []byte) ([]byte, error) {
	if len(obj) < headerLen || string(obj[:len(objectMagic)]) != objectMagic || obj[headerLen-1] != '\n' {
		return nil, errors.New("store: object header malformed")
	}
	body := obj[headerLen:]
	sum := sha256.Sum256(body)
	var want [2 * sha256.Size]byte
	hex.Encode(want[:], sum[:])
	if !bytes.Equal(want[:], obj[len(objectMagic):headerLen-1]) {
		return nil, errors.New("store: object checksum mismatch")
	}
	return body, nil
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
