package pathoram

import (
	"encoding/binary"
	"fmt"
)

// Block is one ORAM block in plaintext form: a program (cache line) address,
// the leaf it is currently mapped to, and its payload.
type Block struct {
	Addr uint64 // block address; DummyAddr for empty slots
	Leaf uint64 // current leaf assignment
	Data []byte // payload, Geometry.BlockBytes long
}

// IsDummy reports whether the block slot is empty.
func (b Block) IsDummy() bool { return b.Addr == DummyAddr }

// packHeader encodes (addr, leaf) into 8 bytes: 40-bit address, 24-bit leaf.
// The packing matches BlockHeaderBytes and bounds the supported tree to
// 2^24 leaves and 2^40 blocks — far beyond the evaluated configurations.
func packHeader(dst []byte, addr, leaf uint64) {
	v := (addr & (1<<40 - 1)) | (leaf&(1<<24-1))<<40
	binary.LittleEndian.PutUint64(dst, v)
}

// unpackHeader inverts packHeader.
func unpackHeader(src []byte) (addr, leaf uint64) {
	v := binary.LittleEndian.Uint64(src)
	return v & (1<<40 - 1), v >> 40
}

// encodeBucket serializes up to Z blocks into a bucket plaintext, padding
// the remaining slots with dummies. blocks longer than Z is a bug.
func (g Geometry) encodeBucket(blocks []Block) []byte {
	if len(blocks) > g.Z {
		panic(fmt.Sprintf("pathoram: %d blocks exceed bucket capacity Z=%d", len(blocks), g.Z))
	}
	out := make([]byte, g.BucketPlainBytes())
	slot := out
	for i := 0; i < g.Z; i++ {
		if i < len(blocks) {
			b := blocks[i]
			packHeader(slot, b.Addr, b.Leaf)
			copy(slot[BlockHeaderBytes:BlockHeaderBytes+g.BlockBytes], b.Data)
		} else {
			packHeader(slot, DummyAddr, 0)
		}
		slot = slot[BlockHeaderBytes+g.BlockBytes:]
	}
	return out
}
