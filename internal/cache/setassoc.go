// Package cache models the processor-side caching structures of the paper's
// simulated memory hierarchy (Table 5): a generic set-associative array with
// true LRU, the three-level data cache hierarchy plus main memory, and the
// MSHR file that makes ASAP prefetches best-effort.
package cache

import (
	"fmt"
	"slices"
)

// invalidTag is the one key an array cannot hold. Ways store their key
// complemented, so a zero word is an empty way and this key's complement
// would read as one. Keys are cache-line numbers, page numbers or VA
// prefixes, all far below 2^64-1; Insert enforces this.
const invalidTag = ^uint64(0)

// maxWays bounds the associativity so a set's head fits its uint16.
const maxWays = 1 << 16

// SetAssoc is a set-associative array of 64-bit keys with true-LRU
// replacement. It is the building block for caches, TLBs and page-walk
// caches. Sets are indexed by the low bits of the key (as hardware does), so
// conflict behaviour is realistic.
//
// Each set stores only its tags, kept in recency order as a ring: logical
// way j, the j-th most recently used, is physical way (head+j) mod ways,
// where head is the set's entry in heads. Recency is therefore the position
// itself, with no per-way age or clock. Each way holds its key
// complemented, so a zero word means empty and a freshly allocated array is
// already flushed. Empty ways form a logical suffix, so the logical last way
// is either empty or the LRU victim: a miss fills it by stepping head back
// one way and writing there, and a hit rotates its way to the head.
type SetAssoc struct {
	sets    int
	nways   int
	setMask uint64
	tags    []uint64
	heads   []uint16
}

// NewSetAssoc returns an array with the given geometry. entries must be a
// positive multiple of ways, ways at most 65536, and entries/ways a power of
// two.
func NewSetAssoc(entries, ways int) *SetAssoc {
	if entries <= 0 || ways <= 0 || ways > maxWays || entries%ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d entries / %d ways", entries, ways))
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	return &SetAssoc{
		sets:    sets,
		nways:   ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, entries),
		heads:   make([]uint16, sets),
	}
}

// Entries returns the total capacity in entries.
func (s *SetAssoc) Entries() int { return s.sets * s.nways }

// Ways returns the associativity.
func (s *SetAssoc) Ways() int { return s.nways }

// set returns the index of key's set and its physical ways.
func (s *SetAssoc) set(key uint64) (int, []uint64) {
	i := int(key & s.setMask)
	base := i * s.nways
	return i, s.tags[base : base+s.nways]
}

// find returns the physical way of set holding the complemented key c, or
// -1. A probe does not depend on the order of the ways and an empty way
// (zero) never equals c, so it scans every way. Not stopping at the first
// empty way keeps the loop's trip count fixed, so a miss, the co-runner's
// common case, never mispredicts on the tags it loads.
func find(set []uint64, c uint64) int {
	for i, t := range set {
		if t == c {
			return i
		}
	}
	return -1
}

// promote makes physical way p of set i the most recently used. When p
// lies at or above head, the more recent ways shift up by one and p lands on
// head. When p lies below head, the ring wraps between them, so the less
// recent ways up to the logical last shift down by one instead and head
// steps back onto the freed way. Either run is contiguous and a few words
// long, so an element loop moves it without a memmove call, and a hit at
// the head moves nothing.
func (s *SetAssoc) promote(i int, set []uint64, p int) {
	head := int(s.heads[i])
	c := set[p]
	if p < head {
		for ; p < head-1; p++ {
			set[p] = set[p+1]
		}
		head--
		s.heads[i] = uint16(head)
	} else {
		for ; p > head; p-- {
			set[p] = set[p-1]
		}
	}
	set[head] = c
}

// Lookup reports whether key is present, making it the most recently used
// key of its set on a hit.
func (s *SetAssoc) Lookup(key uint64) bool {
	if key == invalidTag {
		return false // never falsely hit an empty way
	}
	i, set := s.set(key)
	p := find(set, ^key)
	if p >= 0 {
		s.promote(i, set, p)
	}
	return p >= 0
}

// Contains reports whether key is present without updating LRU state.
func (s *SetAssoc) Contains(key uint64) bool {
	if key == invalidTag {
		return false // never falsely hit an empty way
	}
	_, set := s.set(key)
	return find(set, ^key) >= 0
}

// LookupInsert probes for key and, on a miss, installs it, reporting whether
// the probe hit. It is exactly equivalent to Lookup followed by Insert on a
// miss, at half the set scans.
//
// A hit rotates the key's way to the head. A miss steps the head back one
// way, onto the logical last way, and writes the key there: that way is
// empty if the set has room and holds the LRU victim if it is full, so the
// fill is one store whatever the associativity.
func (s *SetAssoc) LookupInsert(key uint64) bool {
	if key == invalidTag {
		panic("cache: key collides with the invalid-tag sentinel")
	}
	i, set := s.set(key)
	if p := find(set, ^key); p >= 0 {
		s.promote(i, set, p)
		return true
	}
	head := int(s.heads[i])
	if head == 0 {
		head = len(set)
	}
	head--
	set[head] = ^key
	s.heads[i] = uint16(head)
	return false
}

// Insert installs key, evicting the LRU way of its set if needed. Inserting a
// present key makes it the most recently used.
func (s *SetAssoc) Insert(key uint64) { s.LookupInsert(key) }

// Flush invalidates every entry.
func (s *SetAssoc) Flush() {
	clear(s.tags)
	clear(s.heads)
}

// FlushMask invalidates every entry whose key matches match under mask
// (key&mask == match), returning how many entries were invalidated. It is the
// selective-invalidate primitive behind ASID shootdowns: callers that pack an
// address-space identifier into the high tag bits can evict one address
// space's entries without disturbing the rest. Each set is rotated in place
// so that its head is physical way 0, which resets the head, and then
// compacted: the survivors keep their recency order and the freed ways join
// the empty suffix, so an empty way is never examined as a match. Nothing is
// allocated.
func (s *SetAssoc) FlushMask(mask, match uint64) uint64 {
	var n uint64
	for i, head := range s.heads {
		set := s.tags[i*s.nways : (i+1)*s.nways]
		if head != 0 {
			slices.Reverse(set[:head])
			slices.Reverse(set[head:])
			slices.Reverse(set)
			s.heads[i] = 0
		}
		kept, valid := 0, 0
		for ; valid < len(set) && set[valid] != 0; valid++ {
			if ^set[valid]&mask != match {
				set[kept] = set[valid]
				kept++
			}
		}
		n += uint64(valid - kept)
		clear(set[kept:valid])
	}
	return n
}
