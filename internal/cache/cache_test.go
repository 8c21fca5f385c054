package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func mustNew(t *testing.T, name string, capacity, assoc, block int) *Cache {
	t.Helper()
	c, err := New(name, capacity, assoc, block)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometry(t *testing.T) {
	c := mustNew(t, "l1", 32*1024, 2, 128)
	if sets := c.SetMask() + 1; sets != 128 || c.Assoc() != 2 {
		t.Fatalf("sets=%d assoc=%d, want 128/2", sets, c.Assoc())
	}
}

func TestGeometryErrors(t *testing.T) {
	cases := []struct {
		cap, assoc, block int
	}{
		{0, 1, 128},
		{1024, 0, 128},
		{1024, 1, 0},
		{1024, 1, 100},    // block not power of two
		{1000, 1, 128},    // capacity not divisible
		{3 * 128, 1, 128}, // 3 sets: not a power of two
	}
	for _, c := range cases {
		if _, err := New("bad", c.cap, c.assoc, c.block); err == nil {
			t.Fatalf("geometry %+v accepted", c)
		}
	}
}

func TestAssocClampedToFullyAssociative(t *testing.T) {
	// 2 blocks total with assoc 8: clamps to 2-way fully associative.
	c, err := New("tiny", 256, 8, 128)
	if err != nil {
		t.Fatal(err)
	}
	if sets := c.SetMask() + 1; c.Assoc() != 2 || sets != 1 {
		t.Fatalf("tiny cache geometry: sets=%d assoc=%d", sets, c.Assoc())
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, "l1", 1024, 2, 128)
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("second access missed")
	}
	if !c.Access(4) { // same block
		t.Fatal("same-block access missed")
	}
	acc, miss := c.Stats()
	if acc != 3 || miss != 1 {
		t.Fatalf("stats = %d/%d, want 3/1", acc, miss)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped 2-set cache, 128B blocks: addresses 0, 256, 512 all
	// map to set 0.
	c := mustNew(t, "dm", 256, 1, 128)
	c.Access(0)
	c.Access(256) // evicts 0
	if c.Access(0) {
		t.Fatal("evicted block still hit")
	}
}

func TestLRUOrderWithinSet(t *testing.T) {
	// 2-way, 1 set: blocks A, B, C. Touch A, B, re-touch A, then C must
	// evict B (the least recently used), not A.
	c := mustNew(t, "fa", 256, 2, 128)
	a, b, cc := uint32(0), uint32(256), uint32(512)
	c.Access(a)
	c.Access(b)
	c.Access(a)  // A most recent
	c.Access(cc) // evicts B
	if !c.Access(a) {
		t.Fatal("A was evicted, LRU broken")
	}
	if c.Access(b) {
		t.Fatal("B should have been evicted")
	}
}

func TestReset(t *testing.T) {
	c := mustNew(t, "r", 1024, 2, 128)
	c.Access(0)
	c.Access(128)
	c.Reset()
	acc, miss := c.Stats()
	if acc != 0 || miss != 0 {
		t.Fatal("stats survived reset")
	}
	if c.Access(0) {
		t.Fatal("contents survived reset")
	}
}

func TestLargerCacheNeverWorseOnLRUFriendlyStream(t *testing.T) {
	// Inclusion property of LRU: for a sequence of accesses, a larger
	// fully-associative LRU cache cannot miss more than a smaller one.
	r := rng.New(31)
	addrs := make([]uint32, 30000)
	for i := range addrs {
		// Zipf-ish reuse: mostly small working set with a long tail.
		var block uint32
		if r.Bool(0.8) {
			block = uint32(r.Intn(100))
		} else {
			block = uint32(r.Intn(5000))
		}
		addrs[i] = block * 128
	}
	miss := func(blocks int) uint64 {
		c, err := New("fa", blocks*128, blocks, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range addrs {
			c.Access(a)
		}
		_, m := c.Stats()
		return m
	}
	small := miss(64)
	big := miss(1024)
	if big > small {
		t.Fatalf("bigger cache missed more: %d vs %d", big, small)
	}
	if big == small {
		t.Fatal("cache size had no effect; stream not exercising capacity")
	}
}

// Property: hit/miss accounting always sums correctly and repeated access
// to one block hits after the first touch.
func TestQuickAccountingConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c, err := New("q", 4*1024, 2, 128)
		if err != nil {
			return false
		}
		n := 500
		var hits uint64
		for i := 0; i < n; i++ {
			if c.Access(uint32(r.Intn(64)) * 128) {
				hits++
			}
		}
		acc, miss := c.Stats()
		return acc == uint64(n) && miss == uint64(n)-hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: after accessing an address, an immediate re-access hits.
func TestQuickAccessThenProbe(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c, err := New("q2", 2*1024, 4, 128)
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			addr := uint32(r.Intn(1 << 20))
			c.Access(addr)
			if !c.Access(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccess(b *testing.B) {
	c, err := New("bench", 32*1024, 2, 128)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = uint32(r.Intn(1<<16)) * 128
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}

// Configure must reuse backing arrays once grown: reconfiguring a cache
// between geometries it has already seen allocates nothing.
func TestConfigureSteadyStateAllocFree(t *testing.T) {
	var c Cache
	if err := c.Configure("d", 64*1024, 4, 128); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := c.Configure("d", 8*1024, 2, 128); err != nil {
			t.Fatal(err)
		}
		if err := c.Configure("d", 64*1024, 4, 128); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Configure allocates %v in steady state, want 0", avg)
	}
}

// TestAccessSpecializationsMatchGeneric drives each specialized access
// path — AccessDirect, the unrolled 2-way and 4-way paths, and Rehit on
// a same-block repeat — and the generic loop over the same random
// reference stream, and requires identical hit/miss decisions,
// statistics and final contents: the bit-identicality contract the
// simulator's outcome pass relies on.
func TestAccessSpecializationsMatchGeneric(t *testing.T) {
	cases := []struct {
		name   string
		assoc  int
		repeat bool // half the accesses revisit the previous block
		access func(c *Cache, addr, prev uint32) bool
	}{
		{"direct", 1, false, func(c *Cache, addr, _ uint32) bool { return c.AccessDirect(addr) }},
		{"2-way", 2, false, func(c *Cache, addr, _ uint32) bool { return c.Access2(addr) }},
		{"4-way", 4, false, func(c *Cache, addr, _ uint32) bool { return c.Access4(addr) }},
		// The simulator's instruction-fetch pattern: a repeat of the
		// previous access's block takes Rehit, anything else AccessDirect.
		{"rehit", 1, true, func(c *Cache, addr, prev uint32) bool {
			if blk := addr >> c.BlockShift(); blk == prev>>c.BlockShift() {
				c.Rehit(blk & c.SetMask())
				return true
			}
			return c.AccessDirect(addr)
		}},
	}
	for _, tc := range cases {
		ref := mustNew(t, "ref", 8*1024, tc.assoc, 128)
		spec := mustNew(t, "ref", 8*1024, tc.assoc, 128)
		r := rng.New(uint64(tc.assoc))
		prev := ^uint32(0) // block number no address reaches
		rehits := 0
		for i := 0; i < 20000; i++ {
			// A footprint a few times the cache provokes hits, conflict
			// misses, invalid-way fills and LRU evictions alike.
			addr := uint32(r.Intn(64*1024)) &^ 127
			if tc.repeat && i > 0 && r.Intn(2) == 0 {
				addr = prev&^127 | uint32(r.Intn(128))
				rehits++
			}
			if ref.Access(addr) != tc.access(spec, addr, prev) {
				t.Fatalf("%s: access %d to %#x diverged", tc.name, i, addr)
			}
			prev = addr
		}
		if tc.repeat && rehits == 0 {
			t.Fatalf("%s: stream never repeated a block", tc.name)
		}
		ra, rm := ref.Stats()
		sa, sm := spec.Stats()
		if ra != sa || rm != sm {
			t.Fatalf("%s: stats %d/%d vs %d/%d", tc.name, ra, rm, sa, sm)
		}
		if ref.counter != spec.counter ||
			!reflect.DeepEqual(ref.tags, spec.tags) ||
			!reflect.DeepEqual(ref.valid, spec.valid) ||
			!reflect.DeepEqual(ref.lru, spec.lru) {
			t.Fatalf("%s: final contents diverged", tc.name)
		}
	}
}
