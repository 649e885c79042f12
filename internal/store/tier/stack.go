package tier

import (
	"context"
	"time"

	"repro/internal/breaker"
	"repro/internal/result"
	"repro/internal/store"
	"repro/internal/store/memlru"
	"repro/internal/store/objstore"
)

// Breaker names the stack registers in a breaker.Set — also the
// dependency names the X-Degraded header and /healthz readiness use.
const (
	BreakerObjstore    = "objstore"
	BreakerObjstorePut = "objstore-put"
)

// Config selects which tiers a Stack assembles. The zero value yields a
// Stack with no tiers at all (nil Backend) — a dedup-only scheduler.
type Config struct {
	// MemCapacity is the L0 hot-table LRU size in tables (0 disables).
	MemCapacity int
	// MemMaxBytes additionally caps the L0 by approximate resident
	// bytes (0 = entries-only). Ignored when MemCapacity is 0.
	MemMaxBytes int64
	// Dir is the L1 durable disk store directory ("" disables).
	Dir string
	// ObjstoreDir roots a filesystem-backed shared object bucket — the
	// writable shared tier behind the local tiers ("" and a nil
	// ObjstoreClient disable it).
	ObjstoreDir string
	// ObjstoreClient, when non-nil, supplies the shared bucket client
	// directly and takes precedence over ObjstoreDir — tests and
	// in-process fleets inject an objstore.Mem here (or a fault-wrapped
	// client); a cloud adapter would arrive the same way.
	ObjstoreClient objstore.ObjectClient
	// ObjstorePutTimeout bounds each write-through Put against the
	// bucket (0: objstore.DefaultPutTimeout).
	ObjstorePutTimeout time.Duration
	// Breakers, when non-nil, registers circuit breakers for the
	// shared bucket: "objstore"/"objstore-put" around its reads and
	// write-throughs. The same Set should be handed to the serving layer
	// so /healthz, /stats, and X-Degraded report every dependency in one
	// place.
	Breakers *breaker.Set
}

// Stack is the canonical L0 → L1 → shared L2 assembly shared by
// cmd/bccserve and cmd/experiments: an optional in-memory hot table, an
// optional disk store and an optional *writable* shared object bucket,
// composed fastest-first. The per-tier handles are kept so serving
// layers can report tier-specific stats; unconfigured tiers are nil.
//
// The tier order encodes the fleet economics: memory and disk are this
// replica's private cache (the "local" prefix — the only tiers a
// cached=only request or probe may consult); the object bucket is the
// fleet's shared corpus (one write by any replica serves every
// replica). Another replica's corpus is not a tier: the serving layer
// reaches it through the fleet owner fetch (internal/serve).
type Stack struct {
	// Backend is what consumers (the scheduler) use: the single
	// configured tier, their Tiered composition, or nil when no tier is
	// configured at all.
	Backend store.Backend
	// Mem is the L0 hot table (nil unless MemCapacity > 0).
	Mem *memlru.Cache
	// Disk is the L1 durable store (nil unless a directory was given).
	Disk *store.Store
	// Obj is the writable shared bucket tier (nil unless configured).
	Obj *objstore.Tier
	// Tiered is the composition (non-nil only when ≥ 2 tiers stacked).
	Tiered *Tiered

	// local is how many leading tiers are local (memory, disk) — the
	// prefix CachedLocal is allowed to consult.
	local int
}

// CachedLocal answers k from the local tiers only — memory, then disk,
// never the shared bucket — through the same counted
// fallthrough/backfill path as full lookups. This is the serving
// layer's cached=only contract (and the probe endpoint's): a cache-only
// request must trigger no outbound work of any kind — no bucket read,
// no owner fetch or proxy — or two replicas asking each other would
// re-query one another on every shared miss.
func (s Stack) CachedLocal(ctx context.Context, k store.Key) (*result.Table, string, bool) {
	if s.Tiered != nil {
		return s.Tiered.getTierN(ctx, k, s.local)
	}
	if s.local > 0 && s.Backend != nil {
		t, ok := s.Backend.Get(ctx, k)
		return t, s.Backend.Name(), ok
	}
	return nil, "", false
}

// LookupShared answers k from every tier: memory, disk, then the shared
// bucket, naming the tier that answered. This is the non-owner fleet
// path's first stop: before probing or proxying to the owner, the
// shared corpus may already hold the table (the owner's write-through
// lands there), and reading it costs no replica any work.
func (s Stack) LookupShared(ctx context.Context, k store.Key) (*result.Table, string, bool) {
	if s.Tiered != nil {
		return s.Tiered.GetTier(ctx, k)
	}
	if s.Backend != nil {
		t, ok := s.Backend.Get(ctx, k)
		return t, s.Backend.Name(), ok
	}
	return nil, "", false
}

// BackfillLocal writes t into the local tiers (memory, disk) without
// touching the shared bucket: the landing path for a table fetched from
// the owner replica, whose own write-through already populated the
// bucket — re-uploading it from every non-owner would multiply bucket
// writes by the fleet size.
func (s Stack) BackfillLocal(k store.Key, t *result.Table) {
	if s.Mem != nil {
		_ = s.Mem.Put(k, t)
	}
	if s.Disk != nil {
		_ = s.Disk.Put(k, t)
	}
}

// NewStack assembles the tier hierarchy from cfg. Any subset of tiers
// works; none at all yields a Stack with a nil Backend.
func NewStack(cfg Config) (Stack, error) {
	var st Stack
	tiers := []store.Backend{}
	if cfg.MemCapacity > 0 {
		mem, err := memlru.NewSized(cfg.MemCapacity, cfg.MemMaxBytes)
		if err != nil {
			return st, err
		}
		st.Mem = mem
		tiers = append(tiers, mem)
	}
	if cfg.Dir != "" {
		disk, err := store.Open(cfg.Dir)
		if err != nil {
			return st, err
		}
		st.Disk = disk
		tiers = append(tiers, disk)
	}
	st.local = len(tiers)
	client := cfg.ObjstoreClient
	if client == nil && cfg.ObjstoreDir != "" {
		fs, err := objstore.NewFS(cfg.ObjstoreDir)
		if err != nil {
			return st, err
		}
		client = fs
	}
	if client != nil {
		objOpts := []objstore.Option{objstore.WithPutTimeout(cfg.ObjstorePutTimeout)}
		if cfg.Breakers != nil {
			objOpts = append(objOpts, objstore.WithBreakers(
				cfg.Breakers.Get(BreakerObjstore), cfg.Breakers.Get(BreakerObjstorePut)))
		}
		st.Obj = objstore.New(client, objOpts...)
		tiers = append(tiers, st.Obj)
	}
	switch len(tiers) {
	case 0:
	case 1:
		st.Backend = tiers[0]
	default:
		st.Tiered = New(tiers...)
		st.Backend = st.Tiered
	}
	return st, nil
}
