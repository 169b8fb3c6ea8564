package main

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Every written block carries magic ‖ addr ‖ writer ‖ seq; a block never
// written reads as all zeroes.
const (
	payloadMagic = uint32(0x42454e43) // "BENC"
	payloadBytes = 4 + 8 + 4 + 8
	lockStripes  = 1024
)

// oracle knows, for every address, which sequence numbers a correct store
// may return. issued is the highest seq handed to a write of the address,
// acked the highest seq whose write was acknowledged; writes to one address
// are serialized (stripe lock), so a read that started after acked = a and
// finished before issued = i must return a seq in [a, i]. A closed-loop
// client reading a block of its own class has no write in flight, so the
// interval collapses to exactly the last seq it wrote.
type oracle struct {
	clients uint64 // writer of addr is addr mod clients
	issued  []atomic.Uint32
	acked   []atomic.Uint32
	locks   [lockStripes]sync.Mutex
}

func newOracle(blocks uint64, clients int) *oracle {
	return &oracle{
		clients: uint64(clients),
		issued:  make([]atomic.Uint32, blocks),
		acked:   make([]atomic.Uint32, blocks),
	}
}

// beginWrite reserves the next seq of addr and fills buf (≥ payloadBytes)
// with its payload. The caller must call endWrite with the outcome.
func (o *oracle) beginWrite(addr uint64, buf []byte) uint32 {
	o.locks[addr%lockStripes].Lock()
	seq := o.issued[addr].Add(1)
	binary.LittleEndian.PutUint32(buf[0:], payloadMagic)
	binary.LittleEndian.PutUint64(buf[4:], addr)
	binary.LittleEndian.PutUint32(buf[12:], uint32(addr%o.clients))
	binary.LittleEndian.PutUint64(buf[16:], uint64(seq))
	return seq
}

func (o *oracle) endWrite(addr uint64, seq uint32, acked bool) {
	if acked {
		o.acked[addr].Store(seq)
	}
	o.locks[addr%lockStripes].Unlock()
}

// beginRead returns the lowest seq a read of addr starting now may return.
func (o *oracle) beginRead(addr uint64) uint32 { return o.acked[addr].Load() }

// checkRead reports whether data is a correct result for a read of addr
// that began when beginRead returned lo.
func (o *oracle) checkRead(addr uint64, lo uint32, data []byte) bool {
	if len(data) < payloadBytes {
		return false
	}
	hi := o.issued[addr].Load()
	if binary.LittleEndian.Uint32(data[0:]) != payloadMagic {
		// Only a never-written block may lack the magic, and it is all zero.
		for _, b := range data {
			if b != 0 {
				return false
			}
		}
		return lo == 0
	}
	seq := binary.LittleEndian.Uint64(data[16:])
	return binary.LittleEndian.Uint64(data[4:]) == addr &&
		uint64(binary.LittleEndian.Uint32(data[12:])) == addr%o.clients &&
		seq >= uint64(lo) && seq <= uint64(hi)
}
