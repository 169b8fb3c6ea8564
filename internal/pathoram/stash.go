package pathoram

import "math/bits"

// Stash is the on-chip block buffer of the Path ORAM controller. Blocks read
// off a path live here until the write-back phase pushes them as deep as
// their leaf assignment allows. The paper's controller budgets the stash as
// a 128 KB SRAM (§9.1.4); MaxOccupancy lets tests check that functional
// workloads stay far below any such bound.
//
// Blocks are kept in a dense slice in deterministic order (insertion order,
// perturbed only by deterministic swap-removes) and found by scanning it:
// a classic tree's stash seldom outgrows its 2·Z·L reservation, so the scan
// is a few dozen compares, and no secret-keyed hashing decides where a
// block sits. Payload buffers are owned by the stash and recycled through a free
// list, so steady-state operation allocates nothing.
type Stash struct {
	blocks []Block
	free   [][]byte // recycled payload buffers
	peak   int
}

// NewStash returns an empty stash.
func NewStash() *Stash { return &Stash{} }

// reserve gives an empty stash room for n blocks of blockBytes each: the
// block list and n payload buffers cut from one slab. The stash then climbs
// to that occupancy without allocating, so a new high-water mark below it
// costs the heap nothing.
func (s *Stash) reserve(n, blockBytes int) {
	s.blocks = make([]Block, 0, n)
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

// Put appends a block and returns the stored copy. It does not look for an
// older copy: the caller knows the stash lacks the block, because a classic
// path never holds a block the stash holds and the deferred fetches call
// Get first. The payload is copied into stash-owned memory, so b.Data may
// alias a transient decode buffer. A dummy block is ignored and nil
// returned. Pointers previously returned by Put, Get or BlockAt are
// invalidated.
func (s *Stash) Put(b Block) *Block {
	if b.IsDummy() {
		return nil
	}
	var buf []byte
	if n := len(s.free); n > 0 && cap(s.free[n-1]) >= len(b.Data) {
		buf = s.free[n-1][:len(b.Data)]
		s.free = s.free[:n-1]
	} else {
		buf = make([]byte, len(b.Data))
	}
	copy(buf, b.Data)
	s.blocks = append(s.blocks, Block{Addr: b.Addr, Leaf: b.Leaf, Data: buf})
	if len(s.blocks) > s.peak {
		s.peak = len(s.blocks)
	}
	return &s.blocks[len(s.blocks)-1]
}

// Get returns the block with the given address, or nil, after a scan of
// the live blocks. The pointer is valid until the next Put or RemovePlanned.
func (s *Stash) Get(addr uint64) *Block {
	for i := range s.blocks {
		if s.blocks[i].Addr == addr {
			return &s.blocks[i]
		}
	}
	return nil
}

// BlockAt returns the block in slot i (as reported by PlanPathEviction).
// The pointer is valid until the next Put or RemovePlanned.
func (s *Stash) BlockAt(i int) *Block { return &s.blocks[i] }

// EvictPlan is reusable scratch for PlanPathEviction: the per-level block
// selection for one path write-back. A zero EvictPlan is ready for use.
type EvictPlan struct {
	groups [][]int // groups[l] = stash slots whose deepest eligible level is l
	levels [][]int // levels[l] = stash slots chosen for the bucket at level l
	carry  []int   // deeper-eligible blocks not yet placed
	next   []int   // carry list under construction
	marked []bool  // marked[i]: slot i is chosen; all false between calls
}

// size gives the plan room for a stash of n blocks on a path of levels
// buckets of z slots each, so planning and removal allocate nothing until
// the stash outgrows n: every list and the mark array are cut to their
// worst case up front, instead of growing the first time some level's group
// or carry list is longer than ever before.
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
	p.marked = make([]bool, n)
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
	if len(plan.groups) != g.Levels || len(plan.marked) < len(s.blocks) {
		plan.size(g.Levels, z, cap(s.blocks))
	}
	for l := 0; l < g.Levels; l++ {
		plan.groups[l] = plan.groups[l][:0]
	}

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
		plan.carry, plan.next = next, plan.carry
	}
}

// RemovePlanned removes every block chosen by the preceding PlanPathEviction
// from the stash, recycling their payload buffers. It marks the chosen
// slots and swap-removes the marked ones in one descending pass: a swap
// only moves the last block, which is never pending removal, into a slot
// below every one already removed. That is the order of sorting the chosen
// slots and removing them largest first, so the stash order after a
// write-back is a pure function of the plan.
func (s *Stash) RemovePlanned(plan *EvictPlan) {
	for _, sel := range plan.levels {
		for _, i := range sel {
			plan.marked[i] = true
		}
	}
	for i := len(s.blocks) - 1; i >= 0; i-- {
		if !plan.marked[i] {
			continue
		}
		plan.marked[i] = false
		s.free = append(s.free, s.blocks[i].Data)
		last := len(s.blocks) - 1
		s.blocks[i] = s.blocks[last]
		s.blocks[last] = Block{}
		s.blocks = s.blocks[:last]
	}
}

// DeepestLevel returns the deepest level at which a block mapped to
// blockLeaf may legally sit on the path to pathLeaf — the length of the
// common root prefix of the two leaves. It is the grouping key of the
// grouped eviction.
func (g Geometry) DeepestLevel(pathLeaf, blockLeaf uint64) int {
	return g.Levels - 1 - bits.Len64(pathLeaf^blockLeaf)
}
