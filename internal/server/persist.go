package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"tcoram/internal/crypt"
	"tcoram/internal/pathoram"
)

// This file implements the durable storage tier's trust split. A file-backed
// shard persists two different kinds of state:
//
//   - the bucket files (level-N.oram), which are UNTRUSTED exactly like the
//     DRAM they replace: ciphertexts an offline adversary may read and
//     rewrite at will;
//   - a sealed checkpoint CHAIN of the TRUSTED controller state — the
//     position map, stash contents, tombstones, counters — plus the
//     Merkle roots binding it to the bucket files: base.bin, then the
//     records appended to chain.log since. Each element is a u32 length
//     and the Seal blob of a fixed-layout payload (header, then
//     pathoram.AppendState or the padded pathoram.AppendDelta, then each
//     level's redo), encoded into one reused buffer and sealed in place.
//
// A log record carries its sequence number and its predecessor's seal tag,
// so a tampered record fails authentication (crypt.ErrAuthFailed), a
// missing one is a gap (ErrChainGap) and a reordered or spliced one breaks
// the chain (ErrChainOrder). A fresh base replaces the chain at the first
// checkpoint and once the log passes Config.DeltaCompactAfter bytes; the
// log is then truncated.
//
// Crash consistency uses redo-in-checkpoint: between checkpoints every dirty
// bucket page is pinned in the cache (FileStorage.RetainDirty), so the
// bucket files never change behind the chain's back. A checkpoint encodes
// trusted state plus the dirty pages as redo, makes the record durable (log
// append, or base rename), and only then flushes the pages. So a crash
// leaves a chain whose redo, replayed in order, converges the files to the
// newest element's Merkle roots — or a torn final append whose pages were
// never flushed, which recovery drops. docs/ARCHITECTURE.md walks through
// the layout and the recovery cases.

const (
	baseFile = "base.bin"
	baseTemp = "base.tmp"
	logFile  = "chain.log"
	// initMarker exists while a shard directory is being freshly
	// initialized: present on boot, the half-written bucket files are
	// discarded and initialization restarts. Bucket files WITHOUT a
	// checkpoint and without the marker mean an operator pointed the
	// daemon at a directory whose checkpoint was deleted — refuse, fail
	// closed, rather than silently reinitializing over data.
	initMarker = "INITIALIZING"
)

// recordMagic opens every checkpoint payload; the trailing digit is the
// format version. Version 1 carried a position map for every tree and
// tombstones as address lists, version 2 an 8-byte label per slot of the
// deepest tree; records of any other version are refused with ErrOldFormat.
const recordMagic = "TCORAMC3"

// Record kinds.
const (
	kindBase  byte = 1 // full state: base.bin
	kindDelta byte = 2 // padded delta: a chain.log record
)

// Record header layout: magic, kind, zero-padded backend name, restart
// count, Seq, Prev.
const (
	backendBytes = 16
	headerBytes  = len(recordMagic) + 1 + backendBytes + 8 + 8 + crypt.MACSize
)

// ErrNoCheckpoint is returned when a shard directory holds bucket files but
// no checkpoint and no initialization marker — recovery is impossible and
// reinitialization would destroy data, so boot refuses.
var ErrNoCheckpoint = errors.New("server: bucket files present without a checkpoint; refusing to reinitialize")

// ErrChainGap is returned when the checkpoint log has a sequence hole — a
// record was removed while its successors stayed, so the trusted state
// cannot be reconstructed. Fail closed.
var ErrChainGap = errors.New("server: checkpoint log has a gap; refusing to recover")

// ErrChainOrder is returned when a record's sequence number or predecessor
// tag does not match its position in the log — the log was reordered or
// spliced from records of different histories. Fail closed.
var ErrChainOrder = errors.New("server: checkpoint log out of order (reordered or spliced records); refusing to recover")

// ErrOldFormat is returned for a data dir written in an older checkpoint
// format — a gob-encoded base.bin, delta-NNNNNN.bin chain files, a single
// checkpoint.bin, or records of an older TCORAMC version. Boot refuses it
// before touching any file.
var ErrOldFormat = errors.New("server: data dir holds an older checkpoint format; refusing to touch it")

var le = binary.LittleEndian

// record is one decoded chain element.
type record struct {
	kind     byte
	backend  string
	restarts uint64
	seq      uint64
	prev     [crypt.MACSize]byte
	tag      [crypt.MACSize]byte // its own seal tag: the next record's prev
	state    *pathoram.ShardState
	delta    *pathoram.ShardDelta
	redo     [][]pathoram.RedoBucket // per level
}

// persister owns one file-backed shard's durable state: the per-level
// FileStorages, the open chain log and the checkpoint protocol. After
// construction it is owned by the shard's serving goroutine (the Sealer is
// not concurrency-safe, mirroring the per-shard ORAM ciphers).
type persister struct {
	dir       string
	shard     int
	backend   string
	sealer    *crypt.Sealer
	stores    []*pathoram.FileStorage // by level
	restarts  uint64
	ckpts     uint64
	recovered bool
	sync      pathoram.SyncPolicy

	// Chain state. bound is the public position-map entry count of a log
	// record (CheckpointEvery × BatchK: one remap of the stack's one
	// position map per fetched path in a cadence window); seq/lastTag name the newest element, which
	// the next record extends; logSize is the length of chain.log's
	// complete records, compared against compactAfter; haveBase gates
	// records until a base exists.
	log          *os.File
	logSize      int64
	compactAfter int64
	bound        int
	seq          uint64
	lastTag      [crypt.MACSize]byte
	haveBase     bool
	buf          []byte // the reused record buffer

	// Checkpoint cost totals (ShardStats checkpoint_bytes/checkpoint_ns):
	// sealed bytes written and wall time spent across all checkpoints.
	ckptBytes uint64
	ckptNS    uint64
}

// shapeLabel names a stack shape in refusals: preset × position-map levels.
func shapeLabel(backend string, levels int) string {
	return fmt.Sprintf("%s×%d", backend, levels)
}

// shardDir returns the per-shard subdirectory of the data dir.
func shardDir(dataDir string, shard int) string {
	return filepath.Join(dataDir, fmt.Sprintf("shard-%04d", shard))
}

// levelPath returns the bucket file path for one level of a shard's stack.
func levelPath(dir string, level int) string {
	return filepath.Join(dir, fmt.Sprintf("level-%d.oram", level))
}

// newPersister builds the persister of one shard from the config.
func newPersister(cfg Config, shard int) (*persister, error) {
	sync, err := pathoram.ParseSyncPolicy(cfg.Sync)
	if err != nil {
		return nil, err
	}
	return &persister{
		dir:          shardDir(cfg.DataDir, shard),
		shard:        shard,
		backend:      cfg.Backend,
		sealer:       crypt.NewSealer(crypt.NewCipher(cfg.Key, nil)),
		sync:         sync,
		compactAfter: cfg.DeltaCompactAfter,
		bound:        cfg.CheckpointEvery * max(1, cfg.stackConfig().BatchK),
	}, nil
}

// newFileShard builds (or recovers) one file-backed shard: the stack plus
// the persister that will checkpoint it. Boot outcomes:
//
//   - older checkpoint format        -> ErrOldFormat, nothing touched;
//   - checkpoint present             -> recover (fail closed on tampering);
//   - no checkpoint, marker or
//     empty/absent directory         -> fresh initialization;
//   - bucket files, no checkpoint,
//     no marker                      -> ErrNoCheckpoint (fail closed).
func newFileShard(cfg Config, shard int) (*pathoram.Stack, *persister, error) {
	p, err := newPersister(cfg, shard)
	if err != nil {
		return nil, nil, err
	}
	if err := refuseOldFormat(p.dir); err != nil {
		return nil, nil, err
	}
	boot := p.initialize
	if _, err := os.Stat(filepath.Join(p.dir, baseFile)); err == nil {
		boot = p.recover
	} else if _, err := os.Stat(filepath.Join(p.dir, initMarker)); err != nil {
		// No checkpoint and no marker: only an empty (or absent) directory
		// may be initialized.
		if ents, err := os.ReadDir(p.dir); err == nil && len(ents) > 0 {
			return nil, nil, fmt.Errorf("%w (%s)", ErrNoCheckpoint, p.dir)
		}
	}
	b, err := boot(cfg)
	if err != nil {
		p.closeStores()
		return nil, nil, err
	}
	// From here on dirty pages stay pinned between checkpoints, so the
	// bucket files change only at checkpoint flushes.
	for _, fs := range p.stores {
		fs.RetainDirty(true)
	}
	return b, p, nil
}

// refuseOldFormat fails with ErrOldFormat, naming the file, when the shard
// directory holds a file only an older checkpoint format writes. (A gob
// base.bin is recognized when the base is read.)
func refuseOldFormat(dir string) error {
	ents, _ := os.ReadDir(dir) // absent: a fresh shard
	for _, e := range ents {
		if name := e.Name(); name == "checkpoint.bin" || strings.HasPrefix(name, "delta-") && strings.HasSuffix(name, ".bin") {
			return fmt.Errorf("%w: %s holds %s", ErrOldFormat, dir, name)
		}
	}
	return nil
}

// storeConfig builds the FileStorage config for one level.
func storeConfig(cfg Config, dir string, level int, sync pathoram.SyncPolicy) pathoram.FileStorageConfig {
	return pathoram.FileStorageConfig{
		Path:         levelPath(dir, level),
		CacheBuckets: cfg.CacheBuckets,
		Sync:         sync,
	}
}

// initialize creates the shard directory under the crash-safe marker
// protocol, builds a fresh stack on new bucket files, and writes the
// initial checkpoint (a base) before removing the marker.
func (p *persister) initialize(cfg Config) (*pathoram.Stack, error) {
	if err := os.MkdirAll(p.dir, 0o700); err != nil {
		return nil, err
	}
	marker := filepath.Join(p.dir, initMarker)
	if err := os.WriteFile(marker, []byte("initializing\n"), 0o600); err != nil {
		return nil, err
	}
	os.Remove(filepath.Join(p.dir, baseTemp))
	factory := func(level int, g pathoram.Geometry) (pathoram.BucketStore, error) {
		fs, err := pathoram.CreateFileStorage(g, storeConfig(cfg, p.dir, level, p.sync))
		if err != nil {
			return nil, err
		}
		p.stores = append(p.stores, fs)
		return fs, nil
	}
	b, err := pathoram.NewStackOn(cfg.stackConfig(), cfg.Key, shardRNG(cfg.Seed, p.shard, 0), factory)
	if err != nil {
		return nil, err
	}
	// The Merkle tree is mandatory for file-backed shards: its roots are
	// what every checkpoint binds the untrusted files to.
	b.EnableIntegrity()
	b.TrackDirty()
	// Settle the freshly initialized tree into the files, then cut the
	// first checkpoint (always a base — the chain needs an anchor).
	if err := p.flushStores(); err != nil {
		return nil, err
	}
	if err := p.openLog(0); err != nil {
		return nil, err
	}
	if err := p.checkpoint(b); err != nil {
		return nil, err
	}
	if err := os.Remove(marker); err != nil {
		return nil, err
	}
	return b, nil
}

// recover rebuilds the shard from its checkpoint chain: authenticate and
// decode the base, fold every log record in order (each record's seal
// authenticates its contents, its Seq and Prev its position), replay the
// accumulated redo into the bucket files, re-verify against the newest
// sealed Merkle roots, restore trusted state, and drop a torn tail. It then
// seals one checkpoint before any slot, so the bumped restart count — the
// salt of the new leaf stream — is durable: a shard that crashes again
// before its first cadence checkpoint still boots on a fresh stream.
func (p *persister) recover(cfg Config) (*pathoram.Stack, error) {
	base, err := p.readBase()
	if err != nil {
		return nil, err
	}
	// The trusted state only fits the stack shape that captured it; refuse
	// a restart under another one before touching any file.
	sc := cfg.stackConfig()
	if wrote, want := shapeLabel(base.backend, len(base.state.Levels)-1), shapeLabel(cfg.Backend, sc.Recursion); wrote != want {
		return nil, fmt.Errorf("checkpoint was written by a %s stack, daemon configured for %s", wrote, want)
	}
	logImage, err := os.ReadFile(filepath.Join(p.dir, logFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	geoms := sc.Geometries()
	redo, end, err := p.fold(base, logImage)
	if err != nil {
		return nil, err
	}
	// A crash mid-write of a base leaves its temp file; it is not part of
	// the chain.
	os.Remove(filepath.Join(p.dir, baseTemp))
	p.stores = make([]*pathoram.FileStorage, len(geoms))
	for i, g := range geoms {
		fs, err := pathoram.OpenFileStorage(g, storeConfig(cfg, p.dir, i, p.sync))
		if err != nil {
			return nil, err
		}
		p.stores[i] = fs
	}
	// Redo replay: writes the chain captured that may not have reached the
	// files. Idempotent and in chain order, so a torn post-checkpoint flush
	// (or a replayed replay after a crash during recovery) converges to the
	// same bytes the sealed roots certify.
	for _, levels := range redo {
		for level, buckets := range levels {
			for _, rb := range buckets {
				if rb.Idx >= geoms[level].Buckets() || len(rb.Ciphertext) != geoms[level].BucketCipherBytes() {
					return nil, fmt.Errorf("checkpoint redo names bucket %d (%d bytes) outside level %d's geometry", rb.Idx, len(rb.Ciphertext), level)
				}
				p.stores[level].WriteBucket(rb.Idx, rb.Ciphertext)
			}
		}
	}
	if err := p.flushStores(); err != nil {
		return nil, err
	}
	p.restarts++
	factory := func(level int, g pathoram.Geometry) (pathoram.BucketStore, error) {
		return p.stores[level], nil
	}
	b, err := pathoram.RecoverStack(sc, cfg.Key, shardRNG(cfg.Seed, p.shard, p.restarts), factory, base.state)
	if err != nil {
		return nil, err
	}
	b.TrackDirty()
	if err := p.openLog(int64(end)); err != nil {
		return nil, err
	}
	// A stale marker can survive a crash between checkpoint rename and
	// marker removal during initialization; the checkpoint won.
	os.Remove(filepath.Join(p.dir, initMarker))
	p.recovered = true
	p.haveBase = true
	if err := p.checkpoint(b); err != nil {
		return nil, err
	}
	return b, nil
}

// readBase reads, authenticates and decodes base.bin. A base that is not
// one framed record but opens as a bare Seal blob is a gob checkpoint from
// before the chain log: ErrOldFormat.
func (p *persister) readBase() (*record, error) {
	path := filepath.Join(p.dir, baseFile)
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(blob) < 4 || int64(le.Uint32(blob)) != int64(len(blob)-4) {
		if _, err := p.sealer.OpenInPlace(slices.Clone(blob)); err == nil {
			return nil, fmt.Errorf("%w: %s is a gob-encoded checkpoint", ErrOldFormat, path)
		}
		return nil, fmt.Errorf("checkpoint base failed authentication (tampered, truncated or wrong key): %w", crypt.ErrAuthFailed)
	}
	base, err := p.openRecord(blob[4:])
	if err != nil {
		return nil, fmt.Errorf("checkpoint base %s: %w", path, err)
	}
	if base.kind != kindBase {
		return nil, fmt.Errorf("checkpoint base holds a kind-%d record", base.kind)
	}
	return base, nil
}

// splitLog cuts a chain.log image into its complete sealed records and
// returns where they end: past end lies nothing, or a torn append — a
// length prefix or body cut short by a crash mid-write.
func splitLog(image []byte) (sealed [][]byte, end int) {
	for len(image)-end >= 4 {
		n := int64(le.Uint32(image[end:]))
		if n > int64(len(image)-end-4) {
			break
		}
		sealed = append(sealed, image[end+4:end+4+int(n)])
		end += 4 + int(n)
	}
	return sealed, end
}

// fold authenticates chain.log's complete records and folds them onto base
// in chain order: records with Seq ≤ base.seq before the first live one
// are stale (a crash between a base's rename and the log truncate) and are
// skipped; the live ones must run contiguously from base.seq+1, each
// carrying its predecessor's tag, and their deltas fold into base.state
// (each checked against the base's map). It returns the redo to replay, in
// chain order, and the length of the log's complete records. It decrypts
// the image in place and touches no file.
func (p *persister) fold(base *record, image []byte) (redo [][][]pathoram.RedoBucket, end int, err error) {
	sealed, end := splitLog(image)
	recs := make([]*record, len(sealed))
	for i, s := range sealed {
		if recs[i], err = p.openRecord(s); err != nil {
			return nil, 0, fmt.Errorf("%s record %d: %w", logFile, i, err)
		}
	}
	for len(recs) > 0 && recs[0].seq <= base.seq {
		recs = recs[1:]
	}
	redo = append(redo, base.redo)
	want, prev := base.seq+1, base.tag
	for i, r := range recs {
		if r.seq != want {
			if slices.ContainsFunc(recs[i+1:], func(r *record) bool { return r.seq == want }) {
				return nil, 0, fmt.Errorf("%w: record %d found where %d belongs", ErrChainOrder, r.seq, want)
			}
			return nil, 0, fmt.Errorf("%w: record %d is missing", ErrChainGap, want)
		}
		if r.kind != kindDelta || r.prev != prev {
			return nil, 0, fmt.Errorf("%w: record %d does not extend its predecessor", ErrChainOrder, r.seq)
		}
		if r.backend != base.backend {
			return nil, 0, fmt.Errorf("record %d was written by backend %q, the base by %q", r.seq, r.backend, base.backend)
		}
		if err := pathoram.ApplyDelta(base.state, r.delta); err != nil {
			return nil, 0, fmt.Errorf("applying record %d: %w", r.seq, err)
		}
		redo = append(redo, r.redo)
		base.restarts, want, prev = r.restarts, want+1, r.tag
	}
	p.restarts, p.seq, p.lastTag = base.restarts, want-1, prev
	return redo, end, nil
}

// openRecord authenticates one sealed record in place and decodes it.
func (p *persister) openRecord(sealed []byte) (*record, error) {
	var tag [crypt.MACSize]byte
	copy(tag[:], sealed)
	payload, err := p.sealer.OpenInPlace(sealed)
	if err != nil {
		return nil, fmt.Errorf("authentication failed (tampered, truncated or wrong key): %w", err)
	}
	r, err := decodeRecord(payload)
	if err != nil {
		return nil, err
	}
	r.tag = tag
	return r, nil
}

// decodeRecord parses one record payload: the header, the stack state or
// delta its kind names, and one redo section per level, with nothing left
// over. The decoded payloads alias payload.
func decodeRecord(payload []byte) (*record, error) {
	magic := string(payload[:min(len(payload), len(recordMagic))])
	if magic != recordMagic && len(magic) == len(recordMagic) && strings.HasPrefix(magic, recordMagic[:len(recordMagic)-1]) {
		return nil, fmt.Errorf("%w: it holds %s records", ErrOldFormat, magic)
	}
	if len(payload) < headerBytes || magic != recordMagic {
		return nil, errors.New("checkpoint record has no valid header")
	}
	h := payload[len(recordMagic):headerBytes]
	r := &record{
		kind:     h[0],
		backend:  strings.TrimRight(string(h[1:1+backendBytes]), "\x00"),
		restarts: le.Uint64(h[1+backendBytes:]),
		seq:      le.Uint64(h[9+backendBytes:]),
	}
	copy(r.prev[:], h[17+backendBytes:])
	rest := payload[headerBytes:]
	var levels int
	var err error
	switch r.kind {
	case kindBase:
		r.state, rest, err = pathoram.DecodeState(rest)
		if err == nil {
			levels = len(r.state.Levels)
		}
	case kindDelta:
		r.delta, rest, err = pathoram.DecodeDelta(rest)
		if err == nil {
			levels = len(r.delta.Levels)
		}
	default:
		err = fmt.Errorf("unknown record kind %d", r.kind)
	}
	if err != nil {
		return nil, fmt.Errorf("decoding checkpoint record: %w", err)
	}
	r.redo = make([][]pathoram.RedoBucket, levels)
	for i := range r.redo {
		if r.redo[i], rest, err = pathoram.DecodeRedo(rest); err != nil {
			return nil, fmt.Errorf("decoding checkpoint redo: %w", err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("checkpoint record has %d trailing bytes", len(rest))
	}
	return r, nil
}

// openLog opens chain.log for appending at offset size, cutting off anything
// past it (a torn tail, or a stale log under a fresh base).
func (p *persister) openLog(size int64) error {
	f, err := os.OpenFile(filepath.Join(p.dir, logFile), os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	p.log, p.logSize = f, size
	return nil
}

// checkpoint makes the stack's current trusted state durable: a record
// appended to chain.log — except when the chain has no base yet (first
// checkpoint) or the log has outgrown compactAfter bytes, when a fresh base
// replaces the chain. Both paths end with the store flush that unpins the
// dirty pages.
func (p *persister) checkpoint(b *pathoram.Stack) error {
	start := time.Now()
	var err error
	if p.haveBase && p.logSize < p.compactAfter {
		err = p.appendRecord(b)
	} else {
		err = p.writeBase(b)
	}
	if err != nil {
		return err
	}
	p.ckpts++
	p.ckptNS += uint64(time.Since(start))
	return nil
}

// encode builds one framed, sealed record in the reused buffer: length
// prefix and seal headroom, header, state or delta, per-level redo; then
// seals the payload in place and fills in the length.
func (p *persister) encode(b *pathoram.Stack, kind byte, seq uint64) ([]byte, error) {
	buf := append(p.buf[:0], make([]byte, 4+crypt.SealOverhead)...)
	var name [backendBytes]byte
	copy(name[:], p.backend)
	buf = append(append(append(buf, recordMagic...), kind), name[:]...)
	buf = le.AppendUint64(le.AppendUint64(buf, p.restarts), seq)
	buf = append(buf, p.lastTag[:]...)
	var err error
	if kind == kindBase {
		buf, err = b.AppendState(buf)
	} else {
		buf, err = b.AppendDelta(buf, p.bound)
	}
	if err != nil {
		return nil, err
	}
	for _, fs := range p.stores {
		buf = fs.AppendDirty(buf)
	}
	p.buf = buf
	if err := p.sealer.SealInPlace(buf[4:]); err != nil {
		return nil, err
	}
	le.PutUint32(buf, uint32(len(buf)-4))
	return buf, nil
}

// flushStores lets the buffered bucket writes reach the untrusted files
// once the covering chain element is durable (a torn flush is repaired by
// that element's redo).
func (p *persister) flushStores() error {
	for _, fs := range p.stores {
		if err := fs.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// appendRecord drains the stack's change journals into the next log record
// — padded position-map entries plus the dirty-page redo, sealed and linked
// to its predecessor — appends it, then flushes the stores.
func (p *persister) appendRecord(b *pathoram.Stack) error {
	rec, err := p.encode(b, kindDelta, p.seq+1)
	if err != nil {
		return err
	}
	if _, err := p.log.WriteAt(rec, p.logSize); err != nil {
		return err
	}
	if p.sync != pathoram.SyncNone {
		if err := p.log.Sync(); err != nil {
			return err
		}
	}
	if err := p.flushStores(); err != nil {
		return err
	}
	p.seq++
	copy(p.lastTag[:], rec[4:])
	p.logSize += int64(len(rec))
	p.ckptBytes += uint64(len(rec))
	return nil
}

// writeBase captures the full trusted state into a fresh base.bin under
// the tmp+rename protocol, then empties the log it folded and flushes the
// stores.
func (p *persister) writeBase(b *pathoram.Stack) error {
	rec, err := p.encode(b, kindBase, p.seq)
	if err != nil {
		return err
	}
	tmp := filepath.Join(p.dir, baseTemp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(rec); err != nil {
		f.Close()
		return err
	}
	if p.sync != pathoram.SyncNone {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(p.dir, baseFile)); err != nil {
		return err
	}
	if p.sync != pathoram.SyncNone {
		if d, err := os.Open(p.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	if err := p.log.Truncate(0); err != nil {
		return err
	}
	if err := p.flushStores(); err != nil {
		return err
	}
	copy(p.lastTag[:], rec[4:])
	p.logSize = 0
	p.haveBase = true
	p.ckptBytes += uint64(len(rec))
	return nil
}

// shutdown writes the final checkpoint and releases the file handles; the
// resulting directory recovers with zero loss.
func (p *persister) shutdown(b *pathoram.Stack) error {
	err := p.checkpoint(b)
	p.closeStores()
	return err
}

// closeStores releases the bucket files and the log.
func (p *persister) closeStores() {
	for _, fs := range p.stores {
		if fs != nil {
			fs.Close()
		}
	}
	if p.log != nil {
		p.log.Close()
	}
}

// shardRNG derives a shard's RNG stream: its ShardSeed splitmix64 stream,
// salted by the restart count so a recovered
// shard draws fresh leaves instead of replaying the sequence the pre-crash
// instance already consumed after its last checkpoint (the RNG itself is
// deliberately not checkpointed; a production deployment would use a
// hardware RNG with no replayable state at all).
func shardRNG(seed int64, shard int, restarts uint64) *mrand.Rand {
	s := pathoram.ShardSeed(seed, shard)
	if restarts > 0 {
		s = pathoram.ShardSeed(s, int(restarts))
	}
	return mrand.New(mrand.NewSource(s))
}
