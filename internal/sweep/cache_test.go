package sweep

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"testing"
)

// memCache is an in-memory CellCache for exercising MapCached's control flow
// without the on-disk implementation.
type memCache struct {
	mu         sync.Mutex
	m          map[string][]byte
	verify     bool
	mismatches int
}

func newMemCache() *memCache { return &memCache{m: map[string][]byte{}} }

func (c *memCache) Lookup(pre []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.m[string(pre)]
	return b, ok
}

func (c *memCache) Store(pre, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[string(pre)] = append([]byte(nil), payload...)
}

func (c *memCache) VerifyMode() bool { return c.verify }

func (c *memCache) RecordMismatch(pre, cached, recomputed []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mismatches++
}

// withCache installs c for the duration of the test and restores the
// disabled state after.
func withCache(t *testing.T, c CellCache) {
	t.Helper()
	SetCache(c)
	ResetCacheCounters()
	t.Cleanup(func() {
		SetCache(nil)
		ResetCacheCounters()
	})
}

func intPre(i int, v int) []byte { return []byte("cell/" + strconv.Itoa(v)) }

func square(i int, v int) int { return v * v }

var intCodec = CellCodec[int]{
	Encode: func(v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil },
	Decode: func(b []byte) (int, error) { return strconv.Atoi(string(b)) },
}

func TestMapCachedColdWarm(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	items := []int{1, 2, 3, 4}
	cold := MapCached(2, items, intPre, intCodec, square)
	if want := []int{1, 4, 9, 16}; !reflect.DeepEqual(cold, want) {
		t.Fatalf("cold = %v, want %v", cold, want)
	}
	if h, m, _ := CacheCounters(); h != 0 || m != 4 {
		t.Fatalf("cold counters: hits=%d misses=%d", h, m)
	}
	// Warm: fn must not run at all.
	warm := MapCached(2, items, intPre, intCodec, func(i, v int) int {
		t.Errorf("cell %d recomputed on warm run", v)
		return 0
	})
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm = %v, want %v", warm, cold)
	}
	if h, _, _ := CacheCounters(); h != 4 {
		t.Fatalf("warm hits = %d, want 4", h)
	}
	if _, cached, _ := ProgressDetail(); cached < 4 {
		t.Fatalf("jobsCached = %d, want >= 4", cached)
	}
}

func TestMapCachedNoCacheIsMap(t *testing.T) {
	SetCache(nil)
	got := MapCached(2, []int{2, 3}, intPre, intCodec, square)
	if want := []int{4, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMapCachedNilPreimageComputes(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	ran := 0
	for range []int{0, 1} { // both passes must compute: nothing is cacheable
		got := MapCached(1, []int{5}, func(i, v int) []byte { return nil }, intCodec,
			func(i, v int) int { ran++; return v })
		if got[0] != 5 {
			t.Fatalf("got %v", got)
		}
	}
	if ran != 2 {
		t.Fatalf("fn ran %d times, want 2 (nil preimage must never cache)", ran)
	}
	if len(c.m) != 0 {
		t.Fatal("nil-preimage cell was stored")
	}
}

func TestMapCachedEncodeErrorComputesUncached(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	badCodec := CellCodec[int]{
		Encode: func(int) ([]byte, error) { return nil, fmt.Errorf("uncacheable") },
		Decode: intCodec.Decode,
	}
	got := MapCached(1, []int{7}, intPre, badCodec, square)
	if got[0] != 49 {
		t.Fatalf("got %v", got)
	}
	if len(c.m) != 0 {
		t.Fatal("cell with failing encoder was stored")
	}
}

func TestMapCachedUndecodablePayloadRecomputes(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	c.Store(intPre(0, 3), []byte("not a number"))
	got := MapCached(1, []int{3}, intPre, intCodec, square)
	if got[0] != 9 {
		t.Fatalf("got %v, want recomputed 9", got)
	}
	if _, _, inv := CacheCounters(); inv != 1 {
		t.Fatalf("invalid = %d, want 1", inv)
	}
	if b, _ := c.Lookup(intPre(0, 3)); string(b) != "9" {
		t.Fatalf("corrupt entry not repaired: %q", b)
	}
}

func TestMapCachedVerifyDetectsMismatch(t *testing.T) {
	c := newMemCache()
	c.verify = true
	withCache(t, c)
	c.Store(intPre(0, 3), []byte("8")) // lies: 3^2 is 9
	c.Store(intPre(0, 4), []byte("16"))
	got := MapCached(1, []int{3, 4}, intPre, intCodec, square)
	if want := []int{9, 16}; !reflect.DeepEqual(got, want) {
		t.Fatalf("verify must return recomputed truth, got %v", got)
	}
	if c.mismatches != 1 {
		t.Fatalf("mismatches = %d, want 1", c.mismatches)
	}
	if b, _ := c.Lookup(intPre(0, 3)); string(b) != "9" {
		t.Fatalf("lying entry not converged to truth: %q", b)
	}
}

func TestMapCached2Layout(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	rows, cols := []int{1, 2}, []int{10, 20, 30}
	pre := func(a, b int) []byte { return []byte(fmt.Sprintf("c/%d/%d", a, b)) }
	fn := func(a, b int) int { return a * b }
	cold := MapCached2(2, rows, cols, pre, intCodec, fn)
	want := [][]int{{10, 20, 30}, {20, 40, 60}}
	if !reflect.DeepEqual(cold, want) {
		t.Fatalf("cold = %v, want %v", cold, want)
	}
	warm := MapCached2(3, rows, cols, pre, intCodec, func(a, b int) int {
		t.Errorf("cell (%d,%d) recomputed on warm run", a, b)
		return 0
	})
	if !reflect.DeepEqual(warm, want) {
		t.Fatalf("warm = %v, want %v", warm, want)
	}
}

func TestFloat64CodecRoundTripAndRejectsNonFinite(t *testing.T) {
	codec := Float64Codec()
	for _, v := range []float64{0, 1, -1, 3.141592653589793, 1e-300, 1e300, 123456.789} {
		b, err := codec.Encode(v)
		if err != nil {
			t.Fatalf("Encode(%v): %v", v, err)
		}
		got, err := codec.Decode(b)
		if err != nil || got != v {
			t.Fatalf("Decode(Encode(%v)) = %v, %v", v, got, err)
		}
		// Byte-exact re-encode: shortest round-trip form is canonical.
		b2, _ := codec.Encode(got)
		if !bytes.Equal(b, b2) {
			t.Fatalf("re-encode of %v changed bytes: %q vs %q", v, b, b2)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := codec.Encode(v); err == nil {
			t.Fatalf("Encode(%v) succeeded; non-finite values must be uncacheable", v)
		}
	}
	if _, err := codec.Decode([]byte("+Inf")); err == nil {
		t.Fatal("Decode(+Inf) succeeded")
	}
}

func TestFloat64sCodecRoundTripAndRejectsMalformed(t *testing.T) {
	codec := Float64sCodec()
	for _, vs := range [][]float64{{}, {0}, {19671.875, 387562.5, 1e-300, -1}} {
		b, err := codec.Encode(vs)
		if err != nil {
			t.Fatalf("Encode(%v): %v", vs, err)
		}
		got, err := codec.Decode(b)
		if err != nil || !reflect.DeepEqual(got, vs) {
			t.Fatalf("Decode(Encode(%v)) = %v, %v", vs, got, err)
		}
	}
	if b, _ := codec.Encode([]float64{1.5, 2}); string(b) != "[1.5,2]" {
		t.Fatalf("Encode = %q, want [1.5,2]", b)
	}
	if _, err := codec.Encode([]float64{1, math.NaN()}); err == nil {
		t.Fatal("Encode accepted NaN")
	}
	for _, bad := range []string{"", "[", "1,2", "[1,]", "[1,+Inf]", "[1;2]"} {
		if _, err := codec.Decode([]byte(bad)); err == nil {
			t.Fatalf("Decode(%q) succeeded", bad)
		}
	}
}
