package pathoram

import (
	"math/bits"
	"slices"
)

// Stash is the on-chip block buffer of the Path ORAM controller. Blocks read
// off a path live here until the write-back phase pushes them as deep as
// their leaf assignment allows. The paper's controller budgets the stash as
// a 128 KB SRAM (§9.1.4); MaxOccupancy lets tests check that functional
// workloads stay far below any such bound.
//
// Blocks are kept in a dense slice in deterministic order (insertion order,
// perturbed only by deterministic swap-removes), with a map from address to
// slot for O(1) lookup. Payload buffers are owned by the stash and recycled
// through a free list, so steady-state operation allocates nothing.
type Stash struct {
	blocks []Block
	index  map[uint64]int // addr -> position in blocks
	free   [][]byte       // recycled payload buffers
	peak   int
}

// NewStash returns an empty stash.
func NewStash() *Stash {
	return &Stash{index: make(map[uint64]int)}
}

// reserve gives an empty stash room for n blocks of blockBytes each: the
// block list, the index, and n payload buffers cut from one slab. The stash
// then climbs to that occupancy without allocating, so a new high-water
// mark below it costs the heap nothing.
func (s *Stash) reserve(n, blockBytes int) {
	s.blocks = make([]Block, 0, n)
	s.index = make(map[uint64]int, n)
	slab := make([]byte, n*blockBytes)
	s.free = make([][]byte, 0, n)
	for i := range n {
		s.free = append(s.free, slab[i*blockBytes:(i+1)*blockBytes:(i+1)*blockBytes])
	}
}

// Len returns the current number of real blocks held.
func (s *Stash) Len() int { return len(s.blocks) }

// MaxOccupancy returns the largest size the stash ever reached, including
// transient occupancy during accesses.
func (s *Stash) MaxOccupancy() int { return s.peak }

// Put inserts or replaces a block. The payload is copied into stash-owned
// memory, so b.Data may alias a transient decode buffer. Dummy blocks are
// ignored. Pointers previously returned by Get or BlockAt are invalidated.
func (s *Stash) Put(b Block) {
	if b.IsDummy() {
		return
	}
	if i, ok := s.index[b.Addr]; ok {
		blk := &s.blocks[i]
		blk.Leaf = b.Leaf
		copy(blk.Data, b.Data)
		return
	}
	var buf []byte
	if n := len(s.free); n > 0 && cap(s.free[n-1]) >= len(b.Data) {
		buf = s.free[n-1][:len(b.Data)]
		s.free = s.free[:n-1]
	} else {
		buf = make([]byte, len(b.Data))
	}
	copy(buf, b.Data)
	s.index[b.Addr] = len(s.blocks)
	s.blocks = append(s.blocks, Block{Addr: b.Addr, Leaf: b.Leaf, Data: buf})
	if len(s.blocks) > s.peak {
		s.peak = len(s.blocks)
	}
}

// Get returns the block with the given address, or nil. The pointer is valid
// until the next Put, Remove or RemovePlanned.
func (s *Stash) Get(addr uint64) *Block {
	if i, ok := s.index[addr]; ok {
		return &s.blocks[i]
	}
	return nil
}

// BlockAt returns the block in slot i (as reported by PlanPathEviction).
// The pointer is valid until the next Put, Remove or RemovePlanned.
func (s *Stash) BlockAt(i int) *Block { return &s.blocks[i] }

// Remove deletes the block with the given address if present.
func (s *Stash) Remove(addr uint64) {
	if i, ok := s.index[addr]; ok {
		s.removeAt(i)
	}
}

// removeAt deletes slot i by swapping the last block into it (deterministic
// given a deterministic operation sequence) and recycles the payload buffer.
func (s *Stash) removeAt(i int) {
	blk := s.blocks[i]
	delete(s.index, blk.Addr)
	s.free = append(s.free, blk.Data)
	last := len(s.blocks) - 1
	if i != last {
		s.blocks[i] = s.blocks[last]
		s.index[s.blocks[i].Addr] = i
	}
	s.blocks[last] = Block{}
	s.blocks = s.blocks[:last]
}

// EvictForBucket selects up to z blocks that may legally live in the bucket
// at the given level on the path to pathLeaf (their own leaf must share that
// ancestor), removes them from the stash, and returns them. Selection is in
// stash slot order, so identically seeded runs evict identically — the Go
// map iteration of the original implementation made bucket contents vary
// run to run. Greedy deepest-first eviction is achieved by calling this from
// the leaf level upward. The returned payloads are fresh copies the caller
// owns; the write-back hot path uses the allocation-free PlanPathEviction
// instead.
func (s *Stash) EvictForBucket(g Geometry, pathLeaf uint64, level, z int) []Block {
	var out []Block
	for i := 0; i < len(s.blocks) && len(out) < z; i++ {
		if g.OnPath(pathLeaf, s.blocks[i].Leaf, level) {
			b := s.blocks[i]
			b.Data = append([]byte(nil), b.Data...)
			out = append(out, b)
			s.removeAt(i)
			i-- // the swapped-in block must be considered too
		}
	}
	return out
}

// EvictPlan is reusable scratch for PlanPathEviction: the per-level block
// selection for one path write-back. A zero EvictPlan is ready for use.
type EvictPlan struct {
	groups [][]int // groups[l] = stash slots whose deepest eligible level is l
	levels [][]int // levels[l] = stash slots chosen for the bucket at level l
	carry  []int   // deeper-eligible blocks not yet placed
	next   []int   // carry list under construction
	picked []int   // all chosen slots, for RemovePlanned
	room   int     // the stash size every list above has room for
}

// size gives the plan room for a stash of n blocks on a path of levels
// buckets of z slots each, so planning allocates nothing until the stash
// outgrows n: every list is cut to its worst case up front, instead of
// growing the first time some level's group or carry list is longer than
// ever before.
func (p *EvictPlan) size(levels, z, n int) {
	p.groups = make([][]int, levels)
	p.levels = make([][]int, levels)
	groups, chosen := make([]int, levels*n), make([]int, levels*z)
	for l := range levels {
		p.groups[l] = groups[l*n : l*n : (l+1)*n]
		p.levels[l] = chosen[l*z : l*z : (l+1)*z]
	}
	p.carry = make([]int, 0, n)
	p.next = make([]int, 0, n)
	p.picked = make([]int, 0, levels*z)
	p.room = n
}

// LevelBlocks returns the stash slots chosen for the bucket at level l.
func (p *EvictPlan) LevelBlocks(l int) []int { return p.levels[l] }

// PlanPathEviction computes, in one scan of the stash, which blocks the
// greedy write-back places into each bucket on the path to pathLeaf: blocks
// are grouped by the deepest level they are eligible for (the grouped-
// eviction technique), then each level from the leaf upward takes up to z
// candidates — first blocks carried up from deeper groups, then its own
// group — leaving the rest to shallower levels. Candidate order within a
// group is stash slot order, so the plan is deterministic. The plan's slots
// remain valid until the stash is next mutated; call RemovePlanned after
// consuming them. This replaces a full-stash scan per level with a single
// scan per access: O(stash + path) instead of O(stash × levels).
func (s *Stash) PlanPathEviction(g Geometry, pathLeaf uint64, z int, plan *EvictPlan) {
	if len(plan.groups) != g.Levels || plan.room < len(s.blocks) {
		plan.size(g.Levels, z, cap(s.blocks))
	}
	for l := 0; l < g.Levels; l++ {
		plan.groups[l] = plan.groups[l][:0]
	}
	plan.picked = plan.picked[:0]

	// Group phase: bucket every stash block by its deepest eligible level.
	for i := range s.blocks {
		dl := g.DeepestLevel(pathLeaf, s.blocks[i].Leaf)
		plan.groups[dl] = append(plan.groups[dl], i)
	}

	// Selection phase, leaf level upward. A block eligible at level l is
	// eligible at every level above it on this path, so unplaced candidates
	// carry rootward.
	plan.carry = plan.carry[:0]
	for level := g.Levels - 1; level >= 0; level-- {
		take := z
		sel := plan.levels[level][:0]
		next := plan.next[:0]
		for _, i := range plan.carry {
			if take > 0 {
				sel = append(sel, i)
				take--
			} else {
				next = append(next, i)
			}
		}
		for _, i := range plan.groups[level] {
			if take > 0 {
				sel = append(sel, i)
				take--
			} else {
				next = append(next, i)
			}
		}
		plan.levels[level] = sel
		plan.picked = append(plan.picked, sel...)
		plan.carry, plan.next = next, plan.carry
	}
}

// RemovePlanned removes every block chosen by the preceding PlanPathEviction
// from the stash, recycling their payload buffers.
func (s *Stash) RemovePlanned(plan *EvictPlan) {
	// Remove in descending slot order so swap-removes never disturb a slot
	// that is still pending removal.
	slices.Sort(plan.picked)
	for k := len(plan.picked) - 1; k >= 0; k-- {
		s.removeAt(plan.picked[k])
	}
	plan.picked = plan.picked[:0]
}

// Addrs returns the addresses currently in the stash (test helper; order is
// unspecified).
func (s *Stash) Addrs() []uint64 {
	out := make([]uint64, 0, len(s.blocks))
	for _, b := range s.blocks {
		out = append(out, b.Addr)
	}
	return out
}

// DeepestLevel returns the deepest level at which a block mapped to
// blockLeaf may legally sit on the path to pathLeaf — the length of the
// common root prefix of the two leaves. It is the grouping key of the
// grouped eviction.
func (g Geometry) DeepestLevel(pathLeaf, blockLeaf uint64) int {
	return g.Levels - 1 - bits.Len64(pathLeaf^blockLeaf)
}
