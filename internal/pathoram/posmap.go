package pathoram

import "slices"

// unknownLeaf marks a position-map slot whose block has never been accessed.
const unknownLeaf = ^uint64(0)

// positionMap maps block addresses to leaf labels. Dense addresses (the
// overwhelmingly common case: recursive stacks and the simulator address
// blocks 0..n-1) live in a flat slice indexed by address — no hashing, no
// per-access map overhead, cache-friendly. Addresses beyond the tree's
// capacity fall back to a map so the sparse corner of the Access API keeps
// working. In hardware terms the flat slice is the on-chip SRAM position
// map of §3.1.
type positionMap struct {
	flat  []uint64 // flat[addr] = leaf, or unknownLeaf
	limit uint64   // flat may grow to cover addresses < limit
	over  map[uint64]uint64
	// journal, while tracking, records every address Set has assigned since
	// the last capture, repeats included — the change set a delta
	// checkpoint drains instead of copying the whole map. An append per Set
	// keeps the hot path free of hashing; drainJournal sorts and
	// deduplicates. Off (the default) for callers that never capture deltas.
	journal  []uint64
	tracking bool
}

// newPositionMap returns a position map whose flat region may grow to limit
// entries (the tree capacity); storage is allocated lazily as addresses are
// touched.
func newPositionMap(limit uint64) *positionMap {
	return &positionMap{limit: limit}
}

// Get returns the leaf for addr and whether one has been assigned.
func (p *positionMap) Get(addr uint64) (uint64, bool) {
	if addr < p.limit {
		if addr >= uint64(len(p.flat)) {
			return 0, false
		}
		l := p.flat[addr]
		return l, l != unknownLeaf
	}
	l, ok := p.over[addr]
	return l, ok
}

// Track arms dirty tracking: from now on Set records each assigned address
// in the journal so a delta capture can serialize only what changed.
func (p *positionMap) Track() { p.tracking = true }

// Tracking reports whether dirty tracking is armed.
func (p *positionMap) Tracking() bool { return p.tracking }

// drainJournal sorts and deduplicates the journal in place and returns the
// distinct dirtied addresses in ascending order; dense addresses (< limit)
// therefore come first. The slice is valid until resetJournal, which the
// caller runs once it has consumed it.
func (p *positionMap) drainJournal() []uint64 {
	slices.Sort(p.journal)
	p.journal = slices.Compact(p.journal)
	return p.journal
}

// resetJournal empties the journal, keeping its capacity — after a drain,
// or when a full capture supersedes the accumulated delta baseline.
func (p *positionMap) resetJournal() { p.journal = p.journal[:0] }

// Set assigns a leaf to addr, growing the flat region (amortized O(1)) when
// a new dense address appears.
func (p *positionMap) Set(addr, leaf uint64) {
	if p.tracking {
		p.journal = append(p.journal, addr)
	}
	if addr < p.limit {
		if addr >= uint64(len(p.flat)) {
			n := uint64(len(p.flat)) * 2
			if n < addr+1 {
				n = addr + 1
			}
			if n > p.limit {
				n = p.limit
			}
			grown := make([]uint64, n)
			copy(grown, p.flat)
			for i := len(p.flat); i < len(grown); i++ {
				grown[i] = unknownLeaf
			}
			p.flat = grown
		}
		p.flat[addr] = leaf
		return
	}
	if p.over == nil {
		p.over = make(map[uint64]uint64)
	}
	p.over[addr] = leaf
}

// ForEach calls fn for every assigned (addr, leaf) pair: dense addresses in
// ascending order, then overflow addresses in unspecified order.
func (p *positionMap) ForEach(fn func(addr, leaf uint64)) {
	for addr, leaf := range p.flat {
		if leaf != unknownLeaf {
			fn(uint64(addr), leaf)
		}
	}
	for addr, leaf := range p.over {
		fn(addr, leaf)
	}
}
