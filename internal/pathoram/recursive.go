package pathoram

import "fmt"

// LabelBytes is the packed size of one leaf label inside a position-map
// block. 4 bytes supports trees up to 2^32 leaves; recursive blocks of
// 32 bytes therefore hold 8 labels each, matching the fan-out used when
// sizing the paper's 3-level recursion (§9.1.2).
const LabelBytes = 4

// unassignedLabel marks a position-map slot whose block has never been
// accessed; the controller substitutes a fresh random leaf on first touch.
const unassignedLabel = uint32(0xFFFFFFFF)

// RecursiveConfig is the shape of an ORAM stack: one data ORAM plus
// Recursion position-map ORAMs, with the final (smallest) position map held
// on-chip. Recursion = 0 is the flat case — the data ORAM's whole map
// on-chip.
type RecursiveConfig struct {
	// DataBlocks is the number of program blocks (cache lines) stored.
	DataBlocks uint64
	// DataBlockBytes is the data ORAM block size (paper: 64 B).
	DataBlockBytes int
	// PosMapBlockBytes is the recursive ORAM block size (paper: 32 B).
	PosMapBlockBytes int
	// Z is the bucket capacity for all ORAMs (paper: 3).
	Z int
	// Recursion is the number of position-map ORAM levels (paper: 3).
	Recursion int
}

// DefaultRecursiveConfig mirrors §9.1.2: Z = 3 everywhere, 64 B data blocks,
// 32 B position-map blocks, 3 levels of recursion.
func DefaultRecursiveConfig(dataBlocks uint64) RecursiveConfig {
	return RecursiveConfig{
		DataBlocks:       dataBlocks,
		DataBlockBytes:   64,
		PosMapBlockBytes: 32,
		Z:                3,
		Recursion:        3,
	}
}

// Validate reports whether the configuration is usable.
func (c RecursiveConfig) Validate() error {
	switch {
	case c.DataBlocks == 0:
		return fmt.Errorf("pathoram: DataBlocks must be positive")
	case c.DataBlockBytes < 1:
		return fmt.Errorf("pathoram: DataBlockBytes must be positive")
	case c.PosMapBlockBytes < LabelBytes:
		return fmt.Errorf("pathoram: PosMapBlockBytes must hold at least one label")
	case c.Z < 1:
		return fmt.Errorf("pathoram: Z must be positive")
	case c.Recursion < 0 || c.Recursion > 8:
		return fmt.Errorf("pathoram: Recursion must be in [0,8], got %d", c.Recursion)
	}
	return nil
}

// LabelsPerBlock is the position-map fan-out.
func (c RecursiveConfig) LabelsPerBlock() uint64 {
	return uint64(c.PosMapBlockBytes / LabelBytes)
}

// treeBlocks returns the number of addresses each tree of the stack can
// hold: index 0 is the data ORAM's DataBlocks, and each position-map ORAM
// holds one block per LabelsPerBlock labels of the tree above it.
func (c RecursiveConfig) treeBlocks() []uint64 {
	out := []uint64{c.DataBlocks}
	fan := c.LabelsPerBlock()
	for i := 0; i < c.Recursion; i++ {
		out = append(out, (out[i]+fan-1)/fan)
	}
	return out
}

// Geometries returns the tree shapes of the full stack: index 0 is the data
// ORAM, followed by position-map ORAMs from largest to smallest.
func (c RecursiveConfig) Geometries() []Geometry {
	blocks := c.treeBlocks()
	out := []Geometry{GeometryForBlocks(blocks[0], c.Z, c.DataBlockBytes)}
	for _, n := range blocks[1:] {
		out = append(out, GeometryForBlocks(n, c.Z, c.PosMapBlockBytes))
	}
	return out
}

// OnChipPosMapEntries is the size of the final position map kept in on-chip
// SRAM after recursion: the addresses the deepest tree can hold, one label
// each — the map a Stack's deepest tree keeps (DataBlocks for a flat stack).
func (c RecursiveConfig) OnChipPosMapEntries() uint64 { return c.treeBlocks()[c.Recursion] }

// AccessBytes returns the total bytes moved per access in one direction
// (sum of all path reads) and round trip.
func (c RecursiveConfig) AccessBytes() (oneWay, roundTrip int) {
	for _, g := range c.Geometries() {
		oneWay += g.PathBytes()
	}
	return oneWay, 2 * oneWay
}
