package pathoram

import "slices"

// unknownLeaf marks a position-map slot whose block has never been accessed.
const unknownLeaf = ^uint64(0)

// positionMap maps block addresses to leaf labels: a flat slice indexed by
// address, the on-chip SRAM position map of §3.1. Only the tree that owns
// its labels has one — a standalone ORAM, or the deepest tree of a Stack —
// and it is allocated whole at construction, one entry per slot of the tree
// (Geometry.Capacity), so its size is a public function of the shape. Every
// other tree of a Stack finds its labels in the blocks of the tree below and
// carries an empty map.
type positionMap struct {
	flat []uint64 // flat[addr] = leaf, or unknownLeaf
	// journal, while tracking, records every address Set has assigned since
	// the last capture, repeats included — the change set a delta
	// checkpoint drains instead of copying the whole map. An append per Set
	// keeps the hot path free of hashing; drainJournal sorts and
	// deduplicates. Off (the default) for callers that never capture deltas.
	journal  []uint64
	tracking bool
}

// newPositionMap returns a map of n entries, none assigned.
func newPositionMap(n uint64) positionMap {
	flat := make([]uint64, n)
	for i := range flat {
		flat[i] = unknownLeaf
	}
	return positionMap{flat: flat}
}

// Get returns the leaf for addr and whether one has been assigned. addr must
// be below len(flat).
func (p *positionMap) Get(addr uint64) (uint64, bool) {
	l := p.flat[addr]
	return l, l != unknownLeaf
}

// Set assigns a leaf to addr, which must be below len(flat).
func (p *positionMap) Set(addr, leaf uint64) {
	if p.tracking {
		p.journal = append(p.journal, addr)
	}
	p.flat[addr] = leaf
}

// drainJournal sorts and deduplicates the journal in place and returns the
// distinct dirtied addresses in ascending order. The slice is valid until
// resetJournal, which the caller runs once it has consumed it.
func (p *positionMap) drainJournal() []uint64 {
	slices.Sort(p.journal)
	p.journal = slices.Compact(p.journal)
	return p.journal
}

// resetJournal empties the journal, keeping its capacity — after a drain,
// or when a full capture supersedes the accumulated delta baseline.
func (p *positionMap) resetJournal() { p.journal = p.journal[:0] }
