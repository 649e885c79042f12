package objstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/store"
)

// Mem is an in-memory ObjectClient: the single-process stand-in for a
// real bucket, used by tests and by in-process fleet simulations (two
// serve.Servers sharing one Mem behave exactly like two replicas
// sharing a bucket). It is safe for concurrent use.
type Mem struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMem returns an empty in-memory bucket.
func NewMem() *Mem { return &Mem{objects: make(map[string][]byte)} }

// Name identifies the client in stats.
func (m *Mem) Name() string { return "mem" }

// Get returns a copy-free read of the stored bytes (callers must not
// modify them; the tier above only parses).
func (m *Mem) Get(_ context.Context, key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return data, nil
}

// Put stores data under key. The bytes are copied so a caller reusing
// its buffer cannot mutate the bucket.
func (m *Mem) Put(_ context.Context, key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	m.objects[key] = cp
	m.mu.Unlock()
	return nil
}

// Len reports how many objects the bucket holds.
func (m *Mem) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.objects)
}

// FS is a filesystem-backed ObjectClient: one file per object under a
// root directory. Pointed at a shared volume (NFS, a bind mount, a k8s
// RWX claim) it is a deployable shared bucket today — writes are
// temp+rename atomic, so concurrent replicas racing on one key leave a
// complete object from one of them (equal keys carry byte-equal
// objects, so either winner is correct). It is safe for concurrent
// use within and across processes.
type FS struct {
	dir string
}

// NewFS returns a client rooted at dir, creating it if needed. Stale
// temp files orphaned by a crash mid-Put are swept so a crash-looping
// replica cannot fill the shared volume with invisible debris.
func NewFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: creating %s: %w", dir, err)
	}
	store.SweepOrphans(dir)
	return &FS{dir: dir}, nil
}

// Name identifies the client in stats.
func (f *FS) Name() string { return "fs" }

// Dir returns the bucket's root directory.
func (f *FS) Dir() string { return f.dir }

// path maps a key to its file, rejecting anything that could escape the
// root: keys are fingerprint-derived and flat, so separators or dot
// segments only ever appear in hostile or corrupted input.
func (f *FS) path(key string) (string, error) {
	if key == "" || strings.ContainsAny(key, `/\`) || strings.Contains(key, "..") {
		return "", fmt.Errorf("objstore: invalid key %q", key)
	}
	return filepath.Join(f.dir, key), nil
}

// Get reads the object file; an absent file is ErrNotFound.
func (f *FS) Get(_ context.Context, key string) ([]byte, error) {
	p, err := f.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return data, err
}

// Put writes data through store.WriteFileAtomic — a temporary file in
// the root renamed into place, the disk store's writer — so readers
// (local or on other replicas of a shared volume) never observe a
// partial object.
func (f *FS) Put(_ context.Context, key string, data []byte) error {
	p, err := f.path(key)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(p, data)
}
