package pathoram

import (
	"cmp"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
)

// This file implements the durable untrusted store: encrypted buckets at
// fixed offsets in a single file, fronted by an LRU page cache. The file is
// untrusted in exactly the sense DRAM is in the paper — integrity comes from
// the Merkle tree the trusted side keeps over the ciphertexts, and crash
// consistency from the sealed-checkpoint protocol in internal/server (dirty
// pages are pinned in RAM between checkpoints and carried as redo records
// inside the checkpoint, so the file is only ever a checkpoint plus an
// idempotent replay away from a verified state).

// fileMagic identifies a tcoram bucket file; the trailing digit is the
// layout version.
const fileMagic = "TCORAMF1"

// fileHeaderSize is the reserved on-disk header: magic, then the geometry
// the file was created for, so a daemon restarted with different flags
// fails fast instead of decrypting garbage.
const fileHeaderSize = 64

// ErrFileGeometry is returned when a bucket file's header does not match
// the geometry the store is being opened for.
var ErrFileGeometry = errors.New("pathoram: bucket file geometry mismatch")

// SyncPolicy selects when FileStorage calls fsync. SIGKILL does not lose
// OS-buffered writes, so SyncNone already survives process crashes;
// SyncOnFlush also guards against power loss.
type SyncPolicy int

const (
	// SyncNone never fsyncs (crash-safe, not power-loss-safe). Default.
	SyncNone SyncPolicy = iota
	// SyncOnFlush fsyncs at the end of every Flush (checkpoint cadence).
	SyncOnFlush
)

// ParseSyncPolicy maps the CLI spelling to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "none":
		return SyncNone, nil
	case "checkpoint":
		return SyncOnFlush, nil
	}
	return 0, fmt.Errorf("pathoram: unknown sync policy %q (want none | checkpoint)", s)
}

// FileStorageConfig configures a FileStorage.
type FileStorageConfig struct {
	// Path of the bucket file.
	Path string
	// CacheBuckets bounds the page cache (default 1024 buckets). Dirty
	// pages pinned by RetainDirty may grow the cache past the bound until
	// the next Flush.
	CacheBuckets int
	// Sync selects the fsync policy.
	Sync SyncPolicy
	// MMap is accepted and ignored: every bucket read goes through the
	// page cache. It remains so existing callers keep compiling.
	MMap bool
}

// filePage is one cached bucket.
type filePage struct {
	idx  uint64
	data []byte
	// dirtyAt is the page's position in FileStorage.dirty, -1 while clean.
	dirtyAt int
}

// FileStorage is a BucketStore over a file of fixed-offset encrypted
// buckets with an LRU page cache. It is single-goroutine like the ORAM that
// owns it. Writes are buffered in the cache; they reach the file on Flush,
// or on cache eviction when RetainDirty is off. With RetainDirty on (the
// steady state under the checkpoint protocol) dirty pages are pinned so the
// file never changes between Flush calls.
type FileStorage struct {
	geom       Geometry
	bucketSize int
	cfg        FileStorageConfig
	f          *os.File
	cache      map[uint64]*list.Element // idx -> element holding *filePage
	lru        *list.List               // front = most recently used
	// dirty lists the dirty pages, so Flush and AppendDirty sort them
	// instead of scanning the cache; sortDirty orders it by index.
	dirty  []*filePage
	retain bool
	stats  StorageStats
}

// CreateFileStorage creates (or truncates) a bucket file for g and sizes it
// to hold every bucket. The caller must write every bucket (ORAM
// initialization does) before the file holds valid ciphertexts.
func CreateFileStorage(g Geometry, cfg FileStorageConfig) (*FileStorage, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("pathoram: creating bucket file: %w", err)
	}
	s := newFileStorage(g, cfg, f)
	hdr := s.encodeHeader()
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("pathoram: writing bucket file header: %w", err)
	}
	if err := f.Truncate(s.fileSize()); err != nil {
		f.Close()
		return nil, fmt.Errorf("pathoram: sizing bucket file: %w", err)
	}
	if cfg.Sync != SyncNone {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// OpenFileStorage opens an existing bucket file and verifies its header
// matches g (ErrFileGeometry otherwise).
func OpenFileStorage(g Geometry, cfg FileStorageConfig) (*FileStorage, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("pathoram: opening bucket file: %w", err)
	}
	s := newFileStorage(g, cfg, f)
	var hdr [fileHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("pathoram: reading bucket file header: %w", err)
	}
	if want := s.encodeHeader(); hdr != want {
		f.Close()
		return nil, fmt.Errorf("%w: %s was not created for levels=%d z=%d blockBytes=%d",
			ErrFileGeometry, cfg.Path, g.Levels, g.Z, g.BlockBytes)
	}
	if fi, err := f.Stat(); err != nil {
		f.Close()
		return nil, err
	} else if fi.Size() < s.fileSize() {
		f.Close()
		return nil, fmt.Errorf("%w: %s holds %d bytes, want %d", ErrFileGeometry, cfg.Path, fi.Size(), s.fileSize())
	}
	return s, nil
}

func newFileStorage(g Geometry, cfg FileStorageConfig, f *os.File) *FileStorage {
	if cfg.CacheBuckets <= 0 {
		cfg.CacheBuckets = 1024
	}
	return &FileStorage{
		geom:       g,
		bucketSize: g.BucketCipherBytes(),
		cfg:        cfg,
		f:          f,
		cache:      make(map[uint64]*list.Element),
		lru:        list.New(),
	}
}

// encodeHeader packs the identifying header: magic plus the geometry and
// derived bucket size, zero-padded to fileHeaderSize.
func (s *FileStorage) encodeHeader() [fileHeaderSize]byte {
	var hdr [fileHeaderSize]byte
	copy(hdr[:8], fileMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(s.geom.Levels))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(s.geom.Z))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(s.geom.BlockBytes))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(s.bucketSize))
	return hdr
}

func (s *FileStorage) fileSize() int64 {
	return fileHeaderSize + int64(s.geom.Buckets())*int64(s.bucketSize)
}

func (s *FileStorage) bucketOffset(idx uint64) int64 {
	return fileHeaderSize + int64(idx)*int64(s.bucketSize)
}

// Path returns the backing file path.
func (s *FileStorage) Path() string { return s.cfg.Path }

// RetainDirty pins (on=true) or unpins dirty pages in the cache. While
// pinned, no write reaches the file outside Flush — the invariant the
// checkpoint redo protocol needs. Unpinned (during bulk initialization),
// eviction may write dirty pages out.
func (s *FileStorage) RetainDirty(on bool) { s.retain = on }

// DirtyCount returns the number of dirty cached buckets.
func (s *FileStorage) DirtyCount() int { return len(s.dirty) }

// sortDirty orders the dirty list by bucket index (deterministic checkpoint
// encoding, sequential flushes).
func (s *FileStorage) sortDirty() {
	slices.SortFunc(s.dirty, func(a, b *filePage) int { return cmp.Compare(a.idx, b.idx) })
	for i, p := range s.dirty {
		p.dirtyAt = i
	}
}

// AppendDirty appends the store's dirty pages as a checkpoint redo section:
// the page count and the bucket ciphertext size, then each page's index and
// ciphertext in ascending index order. They are the writes the file has not
// absorbed yet; recovery replays them (DecodeRedo) before verifying roots.
func (s *FileStorage) AppendDirty(b []byte) []byte {
	s.sortDirty()
	b = le.AppendUint32(b, uint32(len(s.dirty)))
	b = le.AppendUint32(b, uint32(s.bucketSize))
	for _, p := range s.dirty {
		b = append(le.AppendUint64(b, p.idx), p.data...)
	}
	return b
}

// RedoBucket is one bucket write a checkpoint carries.
type RedoBucket struct {
	Idx        uint64
	Ciphertext []byte
}

// DecodeRedo parses what AppendDirty wrote, returning the writes and the
// input after them. The ciphertexts alias b.
func DecodeRedo(b []byte) ([]RedoBucket, []byte, error) {
	d := &decoder{b: b}
	n, size := int(d.u32()), int(d.u32())
	if d.err == nil && n > len(d.b)/(8+size) {
		d.err = errTruncated
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	redo := make([]RedoBucket, n)
	for i := range redo {
		redo[i] = RedoBucket{Idx: d.u64(), Ciphertext: d.take(size)}
	}
	return redo, d.b, d.err
}

// page returns the cached page for idx, loading it from the file when load
// is true and the page is absent. With load=false an absent page comes back
// zeroed — the BucketSlice path, whose caller overwrites the whole bucket.
// A miss on a full cache takes over the evicted page's buffer and list
// element, so steady-state misses allocate nothing.
func (s *FileStorage) page(idx uint64, load bool) *filePage {
	if el, ok := s.cache[idx]; ok {
		s.stats.CacheHits++
		s.lru.MoveToFront(el)
		return el.Value.(*filePage)
	}
	s.stats.CacheMisses++
	var p *filePage
	if el := s.evictFor(); el != nil {
		p = el.Value.(*filePage)
		s.lru.MoveToFront(el)
		s.cache[idx] = el
	} else {
		p = &filePage{data: make([]byte, s.bucketSize), dirtyAt: -1}
		s.cache[idx] = s.lru.PushFront(p)
	}
	p.idx = idx
	if !load {
		clear(p.data)
		return p
	}
	if _, err := s.f.ReadAt(p.data, s.bucketOffset(idx)); err != nil {
		panic(fmt.Sprintf("pathoram: reading bucket %d from %s: %v", idx, s.cfg.Path, err))
	}
	s.stats.FileReads++
	return p
}

// evictFor makes room for one page when the cache is full: the least
// recently used evictable page leaves the cache map, written out first if
// dirty and unpinned, and its list element is returned for reuse. With every
// page dirty and pinned it returns nil and the cache grows past its bound
// (Flush shrinks the dirty set back to zero).
func (s *FileStorage) evictFor() *list.Element {
	if len(s.cache) < s.cfg.CacheBuckets {
		return nil
	}
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		p := el.Value.(*filePage)
		if p.dirtyAt >= 0 {
			if s.retain {
				continue
			}
			s.writeOut(p)
		}
		delete(s.cache, p.idx)
		return el
	}
	return nil
}

// markDirty adds p to the dirty list (no-op when already dirty).
func (s *FileStorage) markDirty(p *filePage) {
	if p.dirtyAt < 0 {
		p.dirtyAt = len(s.dirty)
		s.dirty = append(s.dirty, p)
	}
}

// writeOut persists one dirty page and swap-removes it from the dirty list.
func (s *FileStorage) writeOut(p *filePage) {
	if _, err := s.f.WriteAt(p.data, s.bucketOffset(p.idx)); err != nil {
		panic(fmt.Sprintf("pathoram: writing bucket %d to %s: %v", p.idx, s.cfg.Path, err))
	}
	s.stats.FileWrites++
	last := s.dirty[len(s.dirty)-1]
	s.dirty[p.dirtyAt], last.dirtyAt = last, p.dirtyAt
	s.dirty[len(s.dirty)-1] = nil
	s.dirty = s.dirty[:len(s.dirty)-1]
	p.dirtyAt = -1
}

// ReadBucket implements Storage. The returned slice aliases the cache page
// and is valid until the next operation on the store.
func (s *FileStorage) ReadBucket(idx uint64) []byte {
	return s.page(idx, true).data
}

// WriteBucket implements Storage.
func (s *FileStorage) WriteBucket(idx uint64, ciphertext []byte) {
	if len(ciphertext) != s.bucketSize {
		panic(fmt.Sprintf("pathoram: bucket ciphertext is %d bytes, want %d", len(ciphertext), s.bucketSize))
	}
	copy(s.BucketSlice(idx), ciphertext)
}

// BucketSlice implements BucketStore: the page is marked dirty and returned
// without a file read (the caller overwrites all of it — the cached
// adaptation of the zero-copy write-back contract).
func (s *FileStorage) BucketSlice(idx uint64) []byte {
	p := s.page(idx, false)
	s.markDirty(p)
	return p.data
}

// Snapshot copies the raw stored bytes of bucket idx (adversary's view of
// the latest write, whether it reached the file yet or not).
func (s *FileStorage) Snapshot(idx uint64) []byte {
	out := make([]byte, s.bucketSize)
	copy(out, s.ReadBucket(idx))
	return out
}

// Flush writes every dirty page to the file (ascending index order) and
// fsyncs under SyncOnFlush. After Flush the file matches the store's
// logical contents exactly.
func (s *FileStorage) Flush() error {
	s.sortDirty()
	for _, p := range s.dirty {
		if _, err := s.f.WriteAt(p.data, s.bucketOffset(p.idx)); err != nil {
			return fmt.Errorf("pathoram: flushing bucket %d to %s: %w", p.idx, s.cfg.Path, err)
		}
		s.stats.FileWrites++
	}
	for _, p := range s.dirty {
		p.dirtyAt = -1
	}
	clear(s.dirty)
	s.dirty = s.dirty[:0]
	if s.cfg.Sync != SyncNone {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("pathoram: syncing %s: %w", s.cfg.Path, err)
		}
	}
	return nil
}

// Close releases the file handle without flushing (see BucketStore.Close).
func (s *FileStorage) Close() error {
	return s.f.Close()
}

// Stats implements BucketStore.
func (s *FileStorage) Stats() StorageStats { return s.stats }
