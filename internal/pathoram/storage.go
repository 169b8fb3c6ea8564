package pathoram

import (
	"fmt"
)

// Storage is the untrusted external memory holding encrypted buckets. The
// secure processor only ever reads and writes whole buckets; the adversary,
// by contrast, may inspect the raw bytes (see Snapshot), which is exactly
// the capability the root-bucket probing attack of §3.2 assumes.
type Storage interface {
	// ReadBucket returns the stored ciphertext of bucket idx. The returned
	// slice aliases internal storage and must not be modified.
	ReadBucket(idx uint64) []byte
	// WriteBucket replaces the ciphertext of bucket idx.
	WriteBucket(idx uint64, ciphertext []byte)
}

// BucketStore is the full untrusted-store surface an ORAM instance is built
// on: Storage plus the zero-copy write-back target, the adversary snapshot
// hook, and lifecycle operations a durable implementation needs. ByteStorage
// (RAM) and FileStorage (disk) both satisfy it.
type BucketStore interface {
	Storage
	// BucketSlice returns a mutable ciphertext-sized buffer for bucket idx
	// that the caller fully overwrites (the write-back path encrypts
	// directly into it). Implementations may treat a call as a pending
	// write of the whole bucket: a cached store returns a dirty page
	// without reading the old contents from its backing file, which is the
	// explicit adaptation of ByteStorage's zero-copy contract to the
	// cached path. The slice is valid until the next operation on the
	// store.
	BucketSlice(idx uint64) []byte
	// Snapshot copies the raw stored bytes of bucket idx — the adversary's
	// view of untrusted memory.
	Snapshot(idx uint64) []byte
	// Flush persists buffered writes to the backing medium (no-op for
	// RAM-backed stores).
	Flush() error
	// Close releases resources without flushing; a durable store is only
	// consistent on disk after an explicit Flush (the checkpoint protocol
	// depends on no buffered write reaching the file behind its back).
	Close() error
	// Stats reports cache and backing-IO counters (zero for RAM stores).
	Stats() StorageStats
}

// StorageStats counts cache and backing-file traffic of a BucketStore.
type StorageStats struct {
	CacheHits   uint64
	CacheMisses uint64
	FileReads   uint64 // buckets read from the backing file
	FileWrites  uint64 // buckets written to the backing file
}

func (s StorageStats) add(o StorageStats) StorageStats {
	return StorageStats{
		CacheHits:   s.CacheHits + o.CacheHits,
		CacheMisses: s.CacheMisses + o.CacheMisses,
		FileReads:   s.FileReads + o.FileReads,
		FileWrites:  s.FileWrites + o.FileWrites,
	}
}

// StorageFactory builds the untrusted store for one tree of an ORAM stack:
// level 0 is the data ORAM, levels 1..Recursion the position-map ORAMs from
// largest to smallest. A nil factory means in-RAM ByteStorage everywhere.
type StorageFactory func(level int, g Geometry) (BucketStore, error)

// newStore resolves a possibly-nil factory for one level.
func newStore(factory StorageFactory, level int, g Geometry) (BucketStore, error) {
	if factory == nil {
		return NewByteStorage(g)
	}
	return factory(level, g)
}

// MaxByteStorage is the largest in-RAM bucket arena NewByteStorage will
// allocate. Larger trees need the file-backed store, whose capacity is
// bounded by the filesystem, not one machine's memory.
const MaxByteStorage = 1 << 31

// ByteStorage is a BucketStore backed by one contiguous byte slice,
// mimicking the fixed DRAM layout the paper relies on ("all buckets are
// stored at fixed locations", §3.2).
type ByteStorage struct {
	geom       Geometry
	bucketSize int
	buf        []byte
}

// NewByteStorage allocates zeroed storage for all buckets of g. It refuses
// geometries beyond MaxByteStorage — use FileStorage for those.
// Note: a zeroed bucket is not a valid ciphertext of an all-dummy bucket;
// ORAM initialization writes every bucket before use.
func NewByteStorage(g Geometry) (*ByteStorage, error) {
	bs := g.BucketCipherBytes()
	total := g.Buckets() * uint64(bs)
	if total > MaxByteStorage {
		return nil, fmt.Errorf("pathoram: geometry needs %d bytes of in-RAM storage (max %d); use the file-backed store", total, MaxByteStorage)
	}
	return &ByteStorage{geom: g, bucketSize: bs, buf: make([]byte, total)}, nil
}

// BucketOffset returns the byte offset of bucket idx within the underlying
// buffer; the adversary uses offset 0 (the root) for probing.
func (s *ByteStorage) BucketOffset(idx uint64) int { return int(idx) * s.bucketSize }

// ReadBucket implements Storage.
func (s *ByteStorage) ReadBucket(idx uint64) []byte {
	off := s.BucketOffset(idx)
	return s.buf[off : off+s.bucketSize]
}

// WriteBucket implements Storage.
func (s *ByteStorage) WriteBucket(idx uint64, ciphertext []byte) {
	if len(ciphertext) != s.bucketSize {
		panic(fmt.Sprintf("pathoram: bucket ciphertext is %d bytes, want %d", len(ciphertext), s.bucketSize))
	}
	off := s.BucketOffset(idx)
	copy(s.buf[off:], ciphertext)
}

// BucketSlice returns the mutable backing bytes of bucket idx. The ORAM
// write-back path encrypts buckets directly into this slice, skipping the
// intermediate ciphertext buffer (and copy) that WriteBucket requires.
func (s *ByteStorage) BucketSlice(idx uint64) []byte {
	off := s.BucketOffset(idx)
	return s.buf[off : off+s.bucketSize]
}

// Snapshot copies the raw bytes of bucket idx — the adversary's view.
func (s *ByteStorage) Snapshot(idx uint64) []byte {
	out := make([]byte, s.bucketSize)
	copy(out, s.ReadBucket(idx))
	return out
}

// Bytes exposes the whole untrusted memory image (adversary's view).
func (s *ByteStorage) Bytes() []byte { return s.buf }

// Flush implements BucketStore (RAM is always "persisted").
func (s *ByteStorage) Flush() error { return nil }

// Close implements BucketStore.
func (s *ByteStorage) Close() error { return nil }

// Stats implements BucketStore; a RAM store has no cache or file traffic.
func (s *ByteStorage) Stats() StorageStats { return StorageStats{} }
