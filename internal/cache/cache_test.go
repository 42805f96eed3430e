package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/rng"
)

func TestSetAssocBasic(t *testing.T) {
	s := NewSetAssoc(16, 4)
	if s.Lookup(42) {
		t.Fatal("hit in empty array")
	}
	s.Insert(42)
	if !s.Lookup(42) {
		t.Fatal("miss after insert")
	}
	if !s.Contains(42) {
		t.Fatal("Contains false after insert")
	}
	s.Flush()
	if s.Lookup(42) {
		t.Fatal("hit after flush")
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	// One set (fully associative, 4 ways): the least recently used entry
	// must be the victim.
	s := NewSetAssoc(4, 4)
	for k := uint64(0); k < 4; k++ {
		s.Insert(k * 4) // same set when sets=1
	}
	s.Lookup(0) // make key 0 most recently used
	s.Insert(100)
	if !s.Contains(0) {
		t.Fatal("most recently used entry evicted")
	}
	if s.Contains(4) {
		t.Fatal("LRU entry 4 survived eviction")
	}
}

func TestSetAssocSetConflicts(t *testing.T) {
	// 2 sets × 1 way: keys with the same low bit conflict.
	s := NewSetAssoc(2, 1)
	s.Insert(0)
	s.Insert(2) // same set as 0
	if s.Contains(0) {
		t.Fatal("direct-mapped conflict did not evict")
	}
	s.Insert(1) // other set
	if !s.Contains(2) || !s.Contains(1) {
		t.Fatal("non-conflicting keys evicted each other")
	}
}

func TestSetAssocInsertRefreshesAge(t *testing.T) {
	s := NewSetAssoc(2, 2)
	s.Insert(0)
	s.Insert(2)
	s.Insert(0) // refresh; must not duplicate
	s.Insert(4) // evicts 2, not 0
	if !s.Contains(0) || s.Contains(2) {
		t.Fatal("re-insert did not refresh LRU age")
	}
}

func TestSetAssocLookupInsertEquivalence(t *testing.T) {
	// LookupInsert must leave the array in exactly the state that the
	// two-scan Lookup-then-Insert sequence would, for any key stream,
	// including streams whose ASID-style masked flushes punch holes
	// mid-set.
	for _, g := range diffGeometries {
		for _, seed := range []uint64{1, 0x9e3779b97f4a7c15} {
			combined, split := NewSetAssoc(g.entries, g.ways), NewSetAssoc(g.entries, g.ways)
			ks := newDiffKeys(g, seed)
			for i := 0; i < g.ops/2; i++ {
				if ks.s.Intn(16) == 0 {
					mask, match := ks.flushMask()
					if a, b := combined.FlushMask(mask, match), split.FlushMask(mask, match); a != b {
						t.Fatalf("%s seed %d op %d: FlushMask invalidated %d vs %d", g.name, seed, i, a, b)
					}
					continue
				}
				key := ks.key()
				hit := combined.LookupInsert(key)
				if split.Lookup(key) != hit {
					t.Fatalf("%s seed %d op %d: LookupInsert hit=%v, Lookup disagrees", g.name, seed, i, hit)
				}
				if !hit {
					split.Insert(key)
				}
				// The two arrays must stay observationally identical: probe
				// every key of the touched set without disturbing LRU state.
				for _, k := range ks.setKeys(key) {
					if combined.Contains(k) != split.Contains(k) {
						t.Fatalf("%s seed %d op %d: arrays diverged at key %#x", g.name, seed, i, k)
					}
				}
			}
		}
	}
}

// refWay and refSetAssoc are the previous age-and-clock implementation of
// SetAssoc, kept as a test-only reference model: each way carries a tag and
// an LRU age stamped from a global clock, holes left by FlushMask stay in
// place, and a miss fills the first empty way or else the way with the
// smallest age.
type refWay struct {
	tag uint64
	age uint64
}

type refSetAssoc struct {
	nways   int
	setMask uint64
	ways    []refWay
	clock   uint64
}

func newRefSetAssoc(entries, ways int) *refSetAssoc {
	r := &refSetAssoc{nways: ways, setMask: uint64(entries/ways - 1), ways: make([]refWay, entries)}
	r.Flush()
	return r
}

func (r *refSetAssoc) set(key uint64) []refWay {
	base := int(key&r.setMask) * r.nways
	return r.ways[base : base+r.nways]
}

func (r *refSetAssoc) Lookup(key uint64) bool {
	if key == invalidTag {
		return false
	}
	set := r.set(key)
	for i := range set {
		if set[i].tag == key {
			r.clock++
			set[i].age = r.clock
			return true
		}
	}
	return false
}

func (r *refSetAssoc) Contains(key uint64) bool {
	if key == invalidTag {
		return false
	}
	for _, w := range r.set(key) {
		if w.tag == key {
			return true
		}
	}
	return false
}

func (r *refSetAssoc) LookupInsert(key uint64) bool {
	set := r.set(key)
	r.clock++
	victim := -1
	for i := range set {
		if set[i].tag == key {
			set[i].age = r.clock
			return true
		}
		if set[i].tag == invalidTag {
			if victim < 0 || set[victim].tag != invalidTag {
				victim = i
			}
			continue
		}
		if victim < 0 || (set[victim].tag != invalidTag && set[i].age < set[victim].age) {
			victim = i
		}
	}
	set[victim] = refWay{tag: key, age: r.clock}
	return false
}

func (r *refSetAssoc) Insert(key uint64) { r.LookupInsert(key) }

func (r *refSetAssoc) Flush() {
	for i := range r.ways {
		r.ways[i].tag = invalidTag
	}
}

func (r *refSetAssoc) FlushMask(mask, match uint64) uint64 {
	var n uint64
	for i := range r.ways {
		if r.ways[i].tag != invalidTag && r.ways[i].tag&mask == match {
			r.ways[i].tag = invalidTag
			n++
		}
	}
	return n
}

// diffGeometry is one array shape the differential tests cover. ops bounds
// the oracle's stream. The widest geometries get shorter streams: each LLC
// flush sweeps all 16384 sets of both arrays, and each 32-way operation
// re-checks 264 keys.
type diffGeometry struct {
	name          string
	entries, ways int
	ops           int
}

var diffGeometries = []diffGeometry{
	{"direct-mapped", 64, 1, 20_000},
	{"8-way L1/L2", 512, 8, 20_000},
	{"20-way LLC", 16384 * 20, 20, 2_000},
	{"fully-assoc PWC", 4, 4, 20_000},
	{"fully-assoc 32", 32, 32, 5_000},
}

// asidShift is where the differential keys carry their address-space tag,
// mirroring the TLBs' and PWCs' packing.
const asidShift = 40

// diffKeys draws keys that crowd a few sets of a geometry: a handful of
// set indexes, tags skewed towards recent small values so hits, fills and
// evictions all occur, and one of four ASIDs in the high bits so masked
// flushes punch holes mid-set.
type diffKeys struct {
	s             *rng.Stream
	sets, touched uint64
	tags          uint64
	bySet         [][]uint64 // every drawable key, per touched set
	all           []uint64
}

const diffASIDs = 4

func newDiffKeys(g diffGeometry, seed uint64) *diffKeys {
	sets := uint64(g.entries / g.ways)
	d := &diffKeys{s: rng.New(seed), sets: sets, touched: min(sets, 4), tags: uint64(2*g.ways + 2)}
	for set := uint64(0); set < d.touched; set++ {
		var keys []uint64
		for asid := uint64(0); asid < diffASIDs; asid++ {
			for tag := uint64(0); tag < d.tags; tag++ {
				keys = append(keys, asid<<asidShift|tag*sets+set)
			}
		}
		d.bySet = append(d.bySet, keys)
		d.all = append(d.all, keys...)
	}
	return d
}

func (d *diffKeys) key() uint64 {
	set := d.s.Uint64n(d.touched)
	tag := d.s.Uint64n(d.s.Uint64n(d.tags) + 1)
	asid := d.s.Uint64n(diffASIDs)
	return asid<<asidShift | tag*d.sets + set
}

// setKeys returns every key the stream can draw that maps to key's set.
func (d *diffKeys) setKeys(key uint64) []uint64 { return d.bySet[key&(d.sets-1)] }

// flushMask picks a selective invalidation: usually one ASID's entries (the
// shootdown shape), sometimes every key with an odd tag, sometimes a single
// key.
func (d *diffKeys) flushMask() (mask, match uint64) {
	switch d.s.Intn(4) {
	case 0:
		return d.sets, d.sets * d.s.Uint64n(2)
	case 1:
		return ^uint64(0), d.key()
	default:
		return ^uint64(1<<asidShift - 1), d.s.Uint64n(diffASIDs) << asidShift
	}
}

// checkRecencyLayout asserts the ring invariant on key's set, read in
// logical (head-first) order: empty ways form a suffix and no key is
// resident twice.
func checkRecencyLayout(t *testing.T, s *SetAssoc, key uint64) {
	t.Helper()
	idx, ring := s.set(key)
	head := int(s.heads[idx])
	set := append(append([]uint64(nil), ring[head:]...), ring[:head]...)
	for i, tag := range set {
		if tag == 0 {
			continue
		}
		if i > 0 && set[i-1] == 0 {
			t.Fatalf("set of key %#x (head %d): logical way %d valid after an empty way: %x", key, head, i, set)
		}
		for _, prev := range set[:i] {
			if prev == tag {
				t.Fatalf("set of key %#x (head %d): key %#x resident twice: %x", key, head, ^tag, set)
			}
		}
	}
}

func TestSetAssocMatchesAgeReference(t *testing.T) {
	// Differential oracle: the recency-ordered array must agree with the
	// age-and-clock reference model on every operation's result and on the
	// residency of every key the stream can draw.
	for _, g := range diffGeometries {
		for _, seed := range []uint64{7, 20191012} {
			got, ref := NewSetAssoc(g.entries, g.ways), newRefSetAssoc(g.entries, g.ways)
			ks := newDiffKeys(g, seed)
			for i := 0; i < g.ops; i++ {
				key := ks.key()
				op := ks.s.Intn(100)
				var a, b uint64
				switch {
				case op < 45:
					a, b = b2u(got.LookupInsert(key)), b2u(ref.LookupInsert(key))
				case op < 60:
					a, b = b2u(got.Lookup(key)), b2u(ref.Lookup(key))
				case op < 70:
					a, b = b2u(got.Contains(key)), b2u(ref.Contains(key))
				case op < 88:
					got.Insert(key)
					ref.Insert(key)
				case op < 99:
					mask, match := ks.flushMask()
					a, b = got.FlushMask(mask, match), ref.FlushMask(mask, match)
				default:
					got.Flush()
					ref.Flush()
				}
				if a != b {
					t.Fatalf("%s seed %d op %d (kind %d, key %#x): result %d, reference %d", g.name, seed, i, op, key, a, b)
				}
				keys := ks.setKeys(key)
				if op >= 88 {
					keys = ks.all // flushes touch every set
				}
				for _, k := range keys {
					if got.Contains(k) != ref.Contains(k) {
						t.Fatalf("%s seed %d op %d (kind %d): residency of %#x diverged: got %v", g.name, seed, i, op, k, got.Contains(k))
					}
				}
				for set := uint64(0); set < ks.touched; set++ {
					checkRecencyLayout(t, got, set)
				}
			}
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestSetAssocSentinelKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inserting the invalid-tag sentinel did not panic")
		}
	}()
	NewSetAssoc(16, 4).Insert(^uint64(0))
}

func TestSetAssocSentinelKeyNeverHits(t *testing.T) {
	// The sentinel marks empty ways; probing it must miss, not match them.
	s := NewSetAssoc(16, 4)
	if s.Lookup(^uint64(0)) || s.Contains(^uint64(0)) {
		t.Fatal("sentinel key hit an empty way")
	}
}

func TestSetAssocGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{0, 1}, {8, 3}, {12, 2}, {-4, 2}} {
		g := g
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v accepted", g)
				}
			}()
			NewSetAssoc(g[0], g[1])
		}()
	}
}

func TestSetAssocPropertyInsertThenLookup(t *testing.T) {
	s := NewSetAssoc(1024, 8)
	f := func(key uint64) bool {
		s.Insert(key)
		return s.Lookup(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetAssocPropertyCapacityBound(t *testing.T) {
	// The number of resident keys can never exceed capacity.
	s := NewSetAssoc(64, 4)
	inserted := map[uint64]bool{}
	f := func(key uint64) bool {
		s.Insert(key)
		inserted[key] = true
		resident := 0
		for k := range inserted {
			if s.Contains(k) {
				resident++
			}
		}
		return resident <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyAccessLatencies(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	addr := mem.PhysAddr(1 << 20)
	served, lat := h.Access(addr)
	if served != ServedMem || lat != 191 {
		t.Fatalf("cold access: %v, %d", served, lat)
	}
	served, lat = h.Access(addr)
	if served != ServedL1 || lat != 4 {
		t.Fatalf("hot access: %v, %d", served, lat)
	}
	if h.ServedCount(ServedMem) != 1 || h.ServedCount(ServedL1) != 1 {
		t.Fatal("served counters wrong")
	}
}

func TestHierarchyFillsUpperLevels(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	addr := mem.PhysAddr(64)
	h.Access(addr)
	if h.Where(addr) != ServedL1 {
		t.Fatalf("line not in L1 after fill: %v", h.Where(addr))
	}
	// Thrash L1 only (32 KB = 512 lines, 8-way, 64 sets): fill lines mapping
	// to the same set until the line falls out of L1 but stays in L2.
	for i := 1; i <= 8; i++ {
		h.Access(mem.PhysAddr(64 + i*64*64)) // same L1 set (64 sets)
	}
	where := h.Where(addr)
	if where == ServedL1 {
		t.Fatal("line survived L1 conflict thrash")
	}
	if where == ServedMem {
		t.Fatal("line fell out of the whole hierarchy")
	}
	served, _ := h.Access(addr)
	if served != where {
		t.Fatalf("Access served at %v, probe said %v", served, where)
	}
}

func TestHierarchyL1DistinctSets(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	// Fill many distinct sets; all must be L1 hits on re-access.
	for i := 0; i < 64; i++ {
		h.Access(mem.PhysAddr(i * 64))
	}
	for i := 0; i < 64; i++ {
		if served, _ := h.Access(mem.PhysAddr(i * 64)); served != ServedL1 {
			t.Fatalf("line %d not L1 resident", i)
		}
	}
}

func TestHierarchyLatencyAccessor(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	if h.Latency(ServedL1) != 4 || h.Latency(ServedL2) != 12 || h.Latency(ServedL3) != 40 || h.Latency(ServedMem) != 191 {
		t.Fatal("latency table wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Latency(ServedPWC) did not panic")
		}
	}()
	h.Latency(ServedPWC)
}

func TestServedByString(t *testing.T) {
	want := map[ServedBy]string{ServedPWC: "PWC", ServedL1: "L1", ServedL2: "L2", ServedL3: "LLC", ServedMem: "Mem"}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestMSHRFile(t *testing.T) {
	m := NewMSHRFile(2)
	if !m.TryAcquire(0, 100) || !m.TryAcquire(0, 50) {
		t.Fatal("fresh MSHRs not acquirable")
	}
	if m.TryAcquire(0, 10) {
		t.Fatal("third acquisition succeeded with 2 MSHRs")
	}
	if m.Dropped() != 1 {
		t.Fatalf("Dropped = %d", m.Dropped())
	}
	if m.InUse(0) != 2 || m.InUse(60) != 1 || m.InUse(100) != 0 {
		t.Fatal("InUse accounting wrong")
	}
	if !m.TryAcquire(50, 200) {
		t.Fatal("expired MSHR not reusable")
	}
}

func TestMSHRPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMSHRFile(0) did not panic")
		}
	}()
	NewMSHRFile(0)
}

func TestFlushMask(t *testing.T) {
	s := NewSetAssoc(8, 4)
	const hi = uint64(1) << 40
	s.Insert(0)      // set 0
	s.Insert(hi | 8) // set 0, tagged
	s.Insert(hi | 1) // set 1, tagged
	if n := s.FlushMask(^uint64(1<<40-1), hi); n != 2 {
		t.Fatalf("FlushMask invalidated %d entries, want 2", n)
	}
	if !s.Contains(0) {
		t.Fatal("untagged entry lost to the masked flush")
	}
	if s.Contains(hi|8) || s.Contains(hi|1) {
		t.Fatal("tagged entry survived the masked flush")
	}
	// Empty ways never match, even though the sentinel has all mask bits set.
	if n := s.FlushMask(^uint64(0), invalidTag); n != 0 {
		t.Fatalf("masked flush matched %d empty ways", n)
	}
}

func TestLookupInsertAfterMidSetHole(t *testing.T) {
	// FlushMask can invalidate ways mid-set. The survivor behind the freed
	// way must stay reachable: a LookupInsert of it is a hit, not a
	// duplicate install (which would halve the set's effective
	// associativity). The survivor is older than the flushed key, so the
	// hole opens in front of it.
	s := NewSetAssoc(4, 4) // one set
	const hi = uint64(1) << 40
	s.Insert(8)      // untagged
	s.Insert(hi | 4) // tagged, now the most recent: way 0, ahead of key 8
	if n := s.FlushMask(^uint64(1<<40-1), hi); n != 1 {
		t.Fatalf("FlushMask invalidated %d, want 1", n)
	}
	if !s.LookupInsert(8) {
		t.Fatal("resident key beyond the hole reported as a miss")
	}
	// Still exactly one copy: invalidate it and count.
	if n := s.FlushMask(^uint64(0)>>1, 8); n != 1 {
		t.Fatalf("key resident %d times after hole probe, want 1", n)
	}
}
