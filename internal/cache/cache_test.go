package cache

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// lines is a test helper: an empty cache of sets × ways lines.
func lines(t testing.TB, sets, ways int) *Cache[struct{}] {
	t.Helper()
	c, err := New[struct{}](sets, ways)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// hierarchy is a test helper over 64-byte lines.
func hierarchy(t testing.TB, l1Bytes, l1Ways, l2Bytes, l2Ways int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(l1Bytes, l1Ways, l2Bytes, l2Ways, 64)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	for _, g := range [][2]int{{0, 4}, {4, 0}, {-1, 2}, {3, 2}, {12, 4}} {
		if _, err := New[uint32](g[0], g[1]); err == nil {
			t.Errorf("New(%d sets, %d ways) accepted", g[0], g[1])
		}
	}
	for _, g := range [][5]int{
		{0, 4, 1024, 4, 128},    // zero L1
		{1024, 0, 1024, 4, 128}, // zero ways
		{1024, 4, 1024, 4, 0},   // zero line
		{1000, 3, 1024, 4, 128}, // indivisible
		{1024, 2, 768, 2, 128},  // 3 L2 sets: not a power of two
	} {
		if _, err := NewHierarchy(g[0], g[1], g[2], g[3], g[4]); err == nil {
			t.Errorf("NewHierarchy%v accepted", g)
		}
	}
}

func TestLookupInsertBasics(t *testing.T) {
	c := lines(t, 8, 2)
	if c.Find(5) != nil {
		t.Error("hit on empty cache")
	}
	c.Put(5, struct{}{}, false)
	if c.Find(5) == nil {
		t.Error("miss after insert")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats=(%d,%d) want (1,1)", hits, misses)
	}
	c.ResetStats()
	if hits, misses := c.Stats(); hits != 0 || misses != 0 || !c.Contains(5) {
		t.Errorf("ResetStats: stats=(%d,%d), resident=%v; want counters cleared, line kept", hits, misses, c.Contains(5))
	}
}

func TestLRUEviction(t *testing.T) {
	c := lines(t, 1, 2)
	c.Put(0, struct{}{}, false)
	c.Put(1, struct{}{}, false)
	// Touch 0 so 1 becomes LRU.
	c.Find(0)
	v, evicted := c.Put(2, struct{}{}, false)
	if !evicted || v.Key != 1 {
		t.Errorf("evicted %+v want line 1", v)
	}
	if !c.Contains(0) || !c.Contains(2) || c.Contains(1) {
		t.Error("LRU state wrong after eviction")
	}
}

func TestDirtyPropagation(t *testing.T) {
	c := lines(t, 1, 2)
	c.Put(7, struct{}{}, false)
	c.Find(7).Dirty = true // a write hit marks the line in place
	c.Put(8, struct{}{}, false)
	if v, evicted := c.Put(9, struct{}{}, false); !evicted || v.Key != 7 || !v.Dirty {
		t.Errorf("victim %+v evicted=%v, want dirty line 7", v, evicted)
	}
	if d := c.AppendDirty(nil); len(d) != 0 {
		t.Errorf("dirty entries %+v after the dirty line left", d)
	}
	c.Find(8).Dirty = true
	if e, present := c.Remove(8); !present || !e.Dirty {
		t.Error("dirty bit lost")
	}
}

// TestAppendDirtyOrder pins the flush order (set, then way) and the way an
// insert takes (the first free one), which together fix the order a PLB
// flush writes its labels back in.
func TestAppendDirtyOrder(t *testing.T) {
	c := lines(t, 2, 2)
	for _, k := range []uint64{1, 0, 3, 2} {
		c.Put(k, struct{}{}, true)
	}
	keys := func() []uint64 {
		var out []uint64
		for _, e := range c.AppendDirty(nil) {
			out = append(out, e.Key)
		}
		return out
	}
	if got := keys(); !slices.Equal(got, []uint64{0, 2, 1, 3}) {
		t.Errorf("flush order %v, want [0 2 1 3]", got)
	}
	c.Remove(0)
	c.Put(4, struct{}{}, true) // takes set 0's freed first way
	if got := keys(); !slices.Equal(got, []uint64{4, 2, 1, 3}) {
		t.Errorf("flush order %v after refilling way 0, want [4 2 1 3]", got)
	}
	c.Clear()
	if c.Len() != 0 || len(keys()) != 0 {
		t.Errorf("Clear left %d entries", c.Len())
	}
}

func TestRemove(t *testing.T) {
	c := lines(t, 4, 4)
	c.Put(9, struct{}{}, true)
	e, ok := c.Remove(9)
	if !ok || !e.Dirty || e.Key != 9 {
		t.Error("Remove lost the line or its dirty bit")
	}
	if _, ok := c.Remove(9); ok {
		t.Error("double remove")
	}
	if c.Len() != 0 {
		t.Error("line count wrong")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("Remove counted (%d,%d)", hits, misses)
	}
}

func TestSetIsolation(t *testing.T) {
	c := lines(t, 4, 1) // direct-mapped
	for k := uint64(0); k < 4; k++ {
		c.Put(k, struct{}{}, false)
	}
	if c.Len() != 4 {
		t.Error("distinct sets should not conflict")
	}
	// 4 maps to the same set as 0.
	v, evicted := c.Put(4, struct{}{}, false)
	if !evicted || v.Key != 0 {
		t.Errorf("conflict eviction wrong: %+v", v)
	}
}

func TestHierarchyExclusive(t *testing.T) {
	h := hierarchy(t, 2*64, 2, 8*64, 2)
	r := h.Access(10, false)
	if r.L1Hit || r.L2Hit || !r.MemFill {
		t.Errorf("first access should be a memory fill: %+v", r)
	}
	// The line is in L1 only (exclusive).
	if !h.L1.Contains(10) || h.L2.Contains(10) {
		t.Error("exclusivity violated after fill")
	}
	// Hit in L1.
	if r := h.Access(10, false); !r.L1Hit {
		t.Error("expected L1 hit")
	}
	// The L1 is one set of two ways: two more lines push 10 (LRU) out.
	h.Access(11, false)
	h.Access(12, false)
	if h.L1.Contains(10) || !h.L2.Contains(10) {
		t.Error("L1 victim did not fall into L2")
	}
	// Access 10 again: must be an L2 hit that moves it back up.
	r = h.Access(10, false)
	if !r.L2Hit || r.MemFill {
		t.Errorf("expected L2 hit: %+v", r)
	}
	if !h.L1.Contains(10) || h.L2.Contains(10) {
		t.Error("exclusivity violated after promotion")
	}
}

func TestHierarchyVictimsReachMemory(t *testing.T) {
	h := hierarchy(t, 2*64, 2, 4*64, 2)
	var victims []Line
	// Stream enough distinct lines through one set to overflow both
	// levels; all map to set 0 of both caches by stride.
	for i := uint64(0); i < 32; i++ {
		r := h.Access(i*4, i%2 == 0) // stride keeps sets aligned; alternate dirty
		victims = append(victims, r.Victims...)
	}
	if len(victims) == 0 {
		t.Fatal("no victims escaped the hierarchy")
	}
	sawDirty := false
	for _, v := range victims {
		if v.Dirty {
			sawDirty = true
		}
	}
	if !sawDirty {
		t.Error("dirty victims lost their dirty bit")
	}
}

func TestNoLineInBothLevels(t *testing.T) {
	h := hierarchy(t, 4*64, 2, 16*64, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		line := rng.Uint64() % 64
		h.Access(line, rng.Intn(2) == 0)
		if h.L1.Contains(line) && h.L2.Contains(line) {
			t.Fatalf("line %d in both levels", line)
		}
	}
}

func TestInsertPrefetch(t *testing.T) {
	h := hierarchy(t, 2*64, 2, 4*64, 2)
	h.Access(8, false) // 8 in L1
	// Prefetching a line already on-chip is a no-op.
	if v := h.InsertPrefetch(8); v != nil {
		t.Error("prefetch duplicated an on-chip line")
	}
	if v := h.InsertPrefetch(9); v != nil {
		t.Error("prefetch into empty L2 should not evict")
	}
	if !h.L2.Contains(9) {
		t.Error("prefetch did not land in L2")
	}
	if h.Access(9, false); !h.L1.Contains(9) {
		t.Error("prefetched line should promote on access")
	}
}

func TestHierarchyStats(t *testing.T) {
	h := hierarchy(t, 2*64, 2, 4*64, 2)
	h.Access(1, false)
	h.Access(1, false)
	h.Access(2, false)
	acc, m1, m2 := h.Stats()
	if acc != 3 || m1 != 2 || m2 != 2 {
		t.Errorf("stats=(%d,%d,%d) want (3,2,2)", acc, m1, m2)
	}
}

// refCache is the reference FuzzCacheLRU holds Cache to: a set-associative
// LRU kept the other way round, each set a slice ordered MRU-first, so a
// hit moves its entry to the front, an insert into a full set drops the
// last, and a removal closes the gap.
type refCache struct {
	sets         [][]refEntry
	ways         int
	hits, misses uint64
}

type refEntry struct {
	key   uint64
	val   uint32
	dirty bool
}

func newRef(sets, ways int) *refCache {
	return &refCache{sets: make([][]refEntry, sets), ways: ways}
}

func (c *refCache) set(key uint64) int { return int(key % uint64(len(c.sets))) }

func (c *refCache) find(key uint64) *refEntry {
	s := c.sets[c.set(key)]
	for i := range s {
		if s[i].key == key {
			e := s[i]
			copy(s[1:i+1], s[:i])
			s[0] = e
			c.hits++
			return &s[0]
		}
	}
	c.misses++
	return nil
}

func (c *refCache) contains(key uint64) bool {
	return slices.ContainsFunc(c.sets[c.set(key)], func(e refEntry) bool { return e.key == key })
}

func (c *refCache) remove(key uint64) (refEntry, bool) {
	idx := c.set(key)
	s := c.sets[idx]
	for i := range s {
		if s[i].key == key {
			e := s[i]
			c.sets[idx] = append(s[:i], s[i+1:]...)
			return e, true
		}
	}
	return refEntry{}, false
}

func (c *refCache) put(key uint64, val uint32, dirty bool) (victim refEntry, evicted bool) {
	idx := c.set(key)
	s := c.sets[idx]
	if len(s) == c.ways {
		victim, evicted = s[len(s)-1], true
		s = s[:len(s)-1]
	}
	c.sets[idx] = append([]refEntry{{key, val, dirty}}, s...)
	return victim, evicted
}

func toRef(e Entry[uint32]) refEntry { return refEntry{e.Key, e.Val, e.Dirty} }

func sortRef(es []refEntry) []refEntry {
	slices.SortFunc(es, func(a, b refEntry) int { return cmp.Compare(a.key, b.key) })
	return es
}

// Fuzz script encoding: the first byte is the geometry (ways = 1 + b&3,
// sets = 1 << (b>>2 & 3)), then two bytes per operation: the op in the
// low two bits of the first (lruFind, lruPut, lruRemove, lruContains),
// bit 2 its flag (a Put inserts dirty; a Find hit rewrites the value and
// marks the entry dirty, as a PLB remap does), and the key, mod 32.
const (
	lruFind = iota
	lruPut
	lruRemove
	lruContains
	lruFlag = 4
)

func lruScript(ways, logSets byte, ops ...[2]byte) []byte {
	out := []byte{(ways - 1) | logSets<<2}
	for _, op := range ops {
		out = append(out, op[0], op[1])
	}
	return out
}

// FuzzCacheLRU drives Cache and refCache with the same Find/Put/Remove/
// Contains sequence over 1–4 ways and 1–8 sets: hits, misses, victims
// (key, value, dirty) and the resident set must agree after every step.
func FuzzCacheLRU(f *testing.F) {
	// One four-way set: fill it, touch 0 so 1 becomes LRU, overflow with
	// 9 (clean victim 1, which then misses), remap 2 in place, touch the
	// other three, overflow with 10 (dirty victim 2 with its new value).
	f.Add(lruScript(4, 0,
		[2]byte{lruPut, 0}, [2]byte{lruPut, 1}, [2]byte{lruPut, 2}, [2]byte{lruPut, 3},
		[2]byte{lruFind, 0}, [2]byte{lruPut, 9}, [2]byte{lruFind, 1},
		[2]byte{lruFind, 0}, [2]byte{lruFind, 2}, [2]byte{lruFind, 3}, [2]byte{lruFind, 9},
		[2]byte{lruFind | lruFlag, 2}, [2]byte{lruFind, 0}, [2]byte{lruFind, 3}, [2]byte{lruFind, 9},
		[2]byte{lruPut, 10}))
	// Two sets of two ways: a removal frees a way that the next insert
	// fills without evicting; a dirty insert surfaces dirty.
	f.Add(lruScript(2, 1,
		[2]byte{lruPut | lruFlag, 0}, [2]byte{lruPut, 2}, [2]byte{lruContains, 4},
		[2]byte{lruRemove, 0}, [2]byte{lruPut, 4}, [2]byte{lruPut, 6}, [2]byte{lruPut, 1},
		[2]byte{lruFind, 4}, [2]byte{lruPut | lruFlag, 8}, [2]byte{lruRemove, 8}))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		ways, sets := int(script[0]&3)+1, 1<<(script[0]>>2&3)
		c, err := New[uint32](sets, ways)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(sets, ways)
		for i := 1; i+1 < len(script); i += 2 {
			op, flag, key, val := script[i]&3, script[i]&lruFlag != 0, uint64(script[i+1]%32), uint32(i)
			switch op {
			case lruFind:
				got, want := c.Find(key), ref.find(key)
				if (got != nil) != (want != nil) {
					t.Fatalf("step %d: Find(%d) hit=%v, reference %v", i, key, got != nil, want != nil)
				}
				if got != nil {
					if toRef(*got) != *want {
						t.Fatalf("step %d: Find(%d) = %+v, reference %+v", i, key, *got, *want)
					}
					if flag {
						got.Val, got.Dirty = val, true
						want.val, want.dirty = val, true
					}
				}
			case lruPut:
				if ref.contains(key) {
					continue // Put's caller ensures the key is not resident
				}
				gv, gok := c.Put(key, val, flag)
				wv, wok := ref.put(key, val, flag)
				if gok != wok || (gok && toRef(gv) != wv) {
					t.Fatalf("step %d: Put(%d) victim %+v/%v, reference %+v/%v", i, key, gv, gok, wv, wok)
				}
			case lruRemove:
				ge, gok := c.Remove(key)
				we, wok := ref.remove(key)
				if gok != wok || (gok && toRef(ge) != we) {
					t.Fatalf("step %d: Remove(%d) = %+v/%v, reference %+v/%v", i, key, ge, gok, we, wok)
				}
			case lruContains:
				if got, want := c.Contains(key), ref.contains(key); got != want {
					t.Fatalf("step %d: Contains(%d) = %v, reference %v", i, key, got, want)
				}
			}
			// The resident set, set by set.
			for s := range sets {
				var got []refEntry
				for _, e := range c.entries[s*ways : (s+1)*ways] {
					if e.stamp != 0 {
						got = append(got, toRef(e))
					}
				}
				want := sortRef(slices.Clone(ref.sets[s]))
				if !slices.Equal(sortRef(got), want) {
					t.Fatalf("step %d: set %d holds %+v, reference %+v", i, s, got, want)
				}
			}
		}
		hits, misses := c.Stats()
		if hits != ref.hits || misses != ref.misses {
			t.Fatalf("stats (%d,%d), reference (%d,%d)", hits, misses, ref.hits, ref.misses)
		}
		var dirty []refEntry
		for _, s := range ref.sets {
			for _, e := range s {
				if e.dirty {
					dirty = append(dirty, e)
				}
			}
		}
		var got []refEntry
		for _, e := range c.AppendDirty(nil) {
			got = append(got, toRef(e))
		}
		if !slices.Equal(sortRef(got), sortRef(dirty)) {
			t.Fatalf("AppendDirty %+v, reference %+v", got, dirty)
		}
		if n := c.Len(); n != countRef(ref) {
			t.Fatalf("Len %d, reference %d", n, countRef(ref))
		}
	})
}

func countRef(c *refCache) int {
	n := 0
	for _, s := range c.sets {
		n += len(s)
	}
	return n
}
