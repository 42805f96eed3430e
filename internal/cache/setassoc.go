// Package cache models the processor-side caching structures of the paper's
// simulated memory hierarchy (Table 5): a generic set-associative array with
// true LRU, the three-level data cache hierarchy plus main memory, and the
// MSHR file that makes ASAP prefetches best-effort.
package cache

import "fmt"

// invalidTag marks an empty way. Keys are cache-line numbers, page numbers or
// VA prefixes, all far below 2^64-1, so the sentinel can never collide with a
// real key; Insert enforces this.
const invalidTag = ^uint64(0)

// SetAssoc is a set-associative array of 64-bit keys with true-LRU
// replacement. It is the building block for caches, TLBs and page-walk
// caches. Sets are indexed by the low bits of the key (as hardware does), so
// conflict behaviour is realistic.
//
// Each set stores only its tags, kept in recency order: way 0 holds the most
// recently used key, and empty ways form a suffix. Recency is therefore the
// position itself, with no per-way age or clock. A probe stops at the first
// empty way, a touched key moves to the front, and the LRU victim of a full
// set is its last way.
type SetAssoc struct {
	sets    int
	nways   int
	setMask uint64
	tags    []uint64
}

// NewSetAssoc returns an array with the given geometry. entries must be a
// positive multiple of ways, and entries/ways must be a power of two.
func NewSetAssoc(entries, ways int) *SetAssoc {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d entries / %d ways", entries, ways))
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	s := &SetAssoc{
		sets:    sets,
		nways:   ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, entries),
	}
	s.Flush()
	return s
}

// Entries returns the total capacity in entries.
func (s *SetAssoc) Entries() int { return s.sets * s.nways }

// Ways returns the associativity.
func (s *SetAssoc) Ways() int { return s.nways }

// set returns the tags of key's set, most recently used first.
func (s *SetAssoc) set(key uint64) []uint64 {
	base := int(key&s.setMask) * s.nways
	return s.tags[base : base+s.nways]
}

// find returns the way of set holding key, or -1. The scan stops at the
// first empty way: every way behind it is empty too.
func find(set []uint64, key uint64) int {
	for i, t := range set {
		if t == key {
			return i
		}
		if t == invalidTag {
			break
		}
	}
	return -1
}

// touch makes set[i] the most recently used way, shifting the more recent
// ways down by one. Whatever set[i] held is overwritten.
func touch(set []uint64, i int, key uint64) {
	copy(set[1:i+1], set[:i])
	set[0] = key
}

// Lookup reports whether key is present, making it the most recently used
// key of its set on a hit.
func (s *SetAssoc) Lookup(key uint64) bool {
	if key == invalidTag {
		return false // never falsely hit an empty way
	}
	set := s.set(key)
	i := find(set, key)
	if i >= 0 {
		touch(set, i, key)
	}
	return i >= 0
}

// Contains reports whether key is present without updating LRU state.
func (s *SetAssoc) Contains(key uint64) bool {
	return key != invalidTag && find(s.set(key), key) >= 0 // never falsely hit an empty way
}

// LookupInsert probes for key and, on a miss, installs it in the same scan,
// reporting whether the probe hit. It is exactly equivalent to Lookup
// followed by Insert on a miss, at half the set scans.
//
// The scan stops at the key, at the first empty way, or at the last way.
// Either way the key then moves to the front: a hit refreshes it, a miss
// with an empty way fills that way, and a miss in a full set drops the last
// way, which is the LRU victim.
func (s *SetAssoc) LookupInsert(key uint64) bool {
	if key == invalidTag {
		panic("cache: key collides with the invalid-tag sentinel")
	}
	set := s.set(key)
	last := len(set) - 1
	i := 0
	for i < last && set[i] != key && set[i] != invalidTag {
		i++
	}
	hit := set[i] == key
	touch(set, i, key)
	return hit
}

// Insert installs key, evicting the LRU way of its set if needed. Inserting a
// present key makes it the most recently used.
func (s *SetAssoc) Insert(key uint64) { s.LookupInsert(key) }

// Flush invalidates every entry.
func (s *SetAssoc) Flush() {
	for i := range s.tags {
		s.tags[i] = invalidTag
	}
}

// FlushMask invalidates every entry whose tag matches match under mask
// (tag&mask == match), returning how many entries were invalidated. It is the
// selective-invalidate primitive behind ASID shootdowns: callers that pack an
// address-space identifier into the high tag bits can evict one address
// space's entries without disturbing the rest. Each set is compacted in
// place: the survivors keep their recency order and the freed ways join the
// empty suffix, so an empty way is never examined as a match.
func (s *SetAssoc) FlushMask(mask, match uint64) uint64 {
	var n uint64
	for base := 0; base < len(s.tags); base += s.nways {
		set := s.tags[base : base+s.nways]
		kept, valid := 0, 0
		for ; valid < len(set) && set[valid] != invalidTag; valid++ {
			if set[valid]&mask != match {
				set[kept] = set[valid]
				kept++
			}
		}
		n += uint64(valid - kept)
		for ; kept < valid; kept++ {
			set[kept] = invalidTag
		}
	}
	return n
}
