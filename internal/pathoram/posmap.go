package pathoram

import "slices"

// positionMap maps block addresses to leaf labels: a flat slice indexed by
// address, the on-chip SRAM position map of §3.1. Only the tree that owns
// its labels has one — a standalone ORAM, or the deepest tree of a Stack —
// and it is allocated whole at construction, one label per address the tree
// can hold (treeRole.blocks), so its size is a public function of the
// shape. A label is 32 bits, as in a position-map block, and
// unassignedLabel marks an address never touched. Every other tree of a
// Stack finds its labels in the blocks of the tree below and carries an
// empty map.
type positionMap struct {
	flat []uint32 // flat[addr] = leaf, or unassignedLabel
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
	flat := make([]uint32, n)
	for i := range flat {
		flat[i] = unassignedLabel
	}
	return positionMap{flat: flat}
}

// Set assigns a leaf to addr, which must be below len(flat).
func (p *positionMap) Set(addr uint64, leaf uint32) {
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
