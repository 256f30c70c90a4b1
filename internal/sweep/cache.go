package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
)

// The cell cache makes figure regeneration incremental: every sweep cell is
// an independent simulation fully determined by its canonical preimage (the
// driver tag plus every config value the cell reads), so a prior run's
// result can stand in for recomputation byte for byte. The sweep package
// only defines the seam — CellCache is implemented by internal/sweepcache,
// which owns hashing, the on-disk format, and corruption handling. Keeping
// the interface bytes-in/bytes-out here avoids an import cycle (sweepcache
// reports its counters through this package, and fleet — whose results are
// cached — already imports sweep).

// CellCache is a content-addressed store for encoded cell results, keyed by
// the cell's canonical preimage. Implementations must be safe for
// concurrent use by sweep workers and must return payloads verbatim
// (Lookup(p) after Store(p, b) yields bytes equal to b), because verify
// mode compares them byte for byte against a recomputation.
type CellCache interface {
	// Lookup returns the payload cached for this preimage. A corrupt,
	// truncated, or stale entry is a miss, never an error: the cache
	// degrades to recomputation.
	Lookup(preimage []byte) (payload []byte, ok bool)
	// Store records the payload for this preimage, overwriting any
	// previous (possibly corrupt) entry.
	Store(preimage, payload []byte)
	// VerifyMode reports whether cached cells must be recomputed anyway
	// and compared against the stored bytes.
	VerifyMode() bool
	// RecordMismatch is called in verify mode when the recomputed encoding
	// differs from the cached payload — the "silently corrupted figure"
	// case the mode exists to catch.
	RecordMismatch(preimage, cached, recomputed []byte)
}

// activeCache is the process-wide cell cache consulted by MapCached; nil
// (the default) means every cell computes. It is set once by the CLI before
// any sweep runs, but is atomic so tests can swap caches around runs that
// race with a live /metrics scrape.
var activeCache atomic.Value // cellCacheBox

// cellCacheBox wraps the interface so atomic.Value tolerates differing
// concrete types (and explicit nil for "disabled").
type cellCacheBox struct{ c CellCache }

// SetCache installs (or, with nil, removes) the process-wide cell cache.
func SetCache(c CellCache) { activeCache.Store(cellCacheBox{c}) }

// ActiveCache returns the installed cell cache, or nil.
func ActiveCache() CellCache {
	if b, ok := activeCache.Load().(cellCacheBox); ok {
		return b.c
	}
	return nil
}

// CellCodec encodes one sweep cell's result type to the deterministic bytes
// stored in the cache and back. Encode must be a pure function of the value
// (map keys sorted, floats in shortest-exact form) so that verify mode's
// byte comparison is meaningful; returning an error marks the cell
// uncacheable (it still computes, nothing is stored). Decode must invert
// Encode exactly — warm results feed the same figure tables as cold ones.
type CellCodec[R any] struct {
	Encode func(R) ([]byte, error)
	Decode func([]byte) (R, error)
}

// Float64Codec carries scalar cell results (tail latencies, QoS
// throughputs) through the cache in shortest round-trip form. NaN and ±Inf
// are rejected as uncacheable rather than silently mapped to 0.
func Float64Codec() CellCodec[float64] {
	return CellCodec[float64]{
		Encode: encodeFloat64Cell,
		Decode: decodeFloat64Cell,
	}
}

func encodeFloat64Cell(v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("sweep: non-finite cell value %v is not cacheable", v)
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

func decodeFloat64Cell(b []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("sweep: non-finite cached value %v", v)
	}
	return v, nil
}

// Float64sCodec carries ordered vector cell results (one QoS throughput per
// searched request type) as a JSON array; encoding/json writes floats in
// shortest round-trip form and refuses NaN and ±Inf.
func Float64sCodec() CellCodec[[]float64] {
	return CellCodec[[]float64]{
		Encode: func(vs []float64) ([]byte, error) { return json.Marshal(vs) },
		Decode: func(b []byte) ([]float64, error) {
			var vs []float64
			err := json.Unmarshal(b, &vs)
			return vs, err
		},
	}
}

// Cache traffic counters, surfaced through /metrics and /progress alongside
// the job counters. Like those, they live in the wall-clock domain and
// never feed back into results.
var (
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	cacheInvalid atomic.Int64
)

// CacheInvalidAdd counts one invalidated cache entry (corrupt file, stale
// schema, checksum or decode failure). Called by cache implementations and
// by MapCached's decode path.
func CacheInvalidAdd() { cacheInvalid.Add(1) }

// CacheCounters returns cumulative (hits, misses, invalidated) since the
// last ResetCacheCounters.
func CacheCounters() (hits, misses, invalid int64) {
	return cacheHits.Load(), cacheMisses.Load(), cacheInvalid.Load()
}

// ResetCacheCounters zeroes the cache traffic counters.
func ResetCacheCounters() {
	cacheHits.Store(0)
	cacheMisses.Store(0)
	cacheInvalid.Store(0)
}

// MapCached is Map with a content-addressed shortcut: when a cell cache is
// installed and the cell's preimage is cacheable (pre returns non-nil), a
// valid cached payload replaces the computation. Determinism is unchanged —
// a hit decodes to exactly the bytes a recomputation would encode to (the
// battery in internal/sweepcache and internal/experiments proves it), and a
// miss runs fn exactly as Map would. In verify mode hits recompute anyway
// and byte-mismatches are reported to the cache. Cells whose preimage or
// encoding fails are computed and never stored.
func MapCached[T, R any](workers int, items []T, pre func(i int, item T) []byte, codec CellCodec[R], fn func(i int, item T) R) []R {
	c := ActiveCache()
	if c == nil || pre == nil || codec.Encode == nil || codec.Decode == nil {
		return Map(workers, items, fn)
	}
	verify := c.VerifyMode()
	return Map(workers, items, func(i int, item T) R {
		p := pre(i, item)
		if p == nil {
			return fn(i, item)
		}
		payload, hit := c.Lookup(p)
		if hit && !verify {
			if r, err := codec.Decode(payload); err == nil {
				cacheHits.Add(1)
				jobsCached.Add(1)
				return r
			}
			// Undecodable payload: treat as corruption, fall through to
			// recompute and overwrite.
			CacheInvalidAdd()
			hit = false
		}
		if !hit {
			cacheMisses.Add(1)
		}
		r := fn(i, item)
		enc, err := codec.Encode(r)
		if err != nil || enc == nil {
			return r
		}
		if hit { // verify mode: compare recomputation against the cache
			cacheHits.Add(1)
			if !bytes.Equal(enc, payload) {
				c.RecordMismatch(p, payload, enc)
				c.Store(p, enc) // converge the cache on the recomputed truth
			}
			return r
		}
		c.Store(p, enc)
		return r
	})
}

// MapCached2 is Map2 with the MapCached shortcut: fn runs over rows × cols
// (row-major) with per-cell cache lookups keyed by pre(a, b).
func MapCached2[A, B, R any](workers int, rows []A, cols []B, pre func(a A, b B) []byte, codec CellCodec[R], fn func(a A, b B) R) [][]R {
	type cell struct {
		a A
		b B
	}
	jobs := make([]cell, 0, len(rows)*len(cols))
	for _, a := range rows {
		for _, b := range cols {
			jobs = append(jobs, cell{a, b})
		}
	}
	var preFlat func(i int, c cell) []byte
	if pre != nil {
		preFlat = func(_ int, c cell) []byte { return pre(c.a, c.b) }
	}
	flat := MapCached(workers, jobs, preFlat, codec, func(_ int, c cell) R { return fn(c.a, c.b) })
	out := make([][]R, len(rows))
	for i := range rows {
		out[i] = flat[i*len(cols) : (i+1)*len(cols)]
	}
	return out
}
