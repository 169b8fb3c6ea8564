package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
//   - a sealed checkpoint CHAIN of the TRUSTED controller state — position
//     maps, stash contents, tombstones, counters — plus the Merkle roots
//     binding it to the bucket files, each element encrypted and MAC'd
//     under the session key (crypt.Seal).
//
// The chain is base.bin (a full ShardState snapshot, persistedState) plus
// zero or more delta-NNNNNN.bin files (incremental pathoram.ShardDelta
// captures, persistedDelta) in strictly increasing sequence order. Every
// delta names its position in the chain (Seq) and carries the SHA-256 of
// its predecessor's sealed bytes (Prev), so a chain an adversary splices,
// reorders or punches a hole in fails closed at recovery: a tampered
// element fails authentication (crypt.ErrAuthFailed), a missing element is
// a sequence gap (ErrChainGap), a reordered or substituted element breaks
// the predecessor hash (ErrChainOrder). In "full" checkpoint mode (the
// default) every checkpoint rewrites base.bin and the chain has one
// element, exactly PR 8's protocol under a new file name; in "delta" mode a
// checkpoint appends an O(dirty) delta, and a compactor folds the chain
// back into a fresh base once the accumulated delta bytes pass
// Config.DeltaCompactAfter (so recovery replay and chain storage stay
// bounded).
//
// Crash consistency uses redo-in-checkpoint: between checkpoints every dirty
// bucket page is pinned in the cache (FileStorage.RetainDirty), so the
// bucket files never change behind the chain's back. A checkpoint then
// (1) captures trusted state (full or delta) and the dirty pages as redo
// records, (2) seals and atomically renames the blob into place, (3)
// flushes the dirty pages. A crash at any point leaves a complete chain
// plus bucket files that the chain's redo records — replayed in chain
// order, idempotently — converge to exactly the state the newest element's
// Merkle roots certify. Recovery therefore: authenticate and decode the
// base, fold each delta in order (verifying Seq and Prev), replay all redo,
// re-hash the bucket files against the final roots (tampering fails closed
// with pathoram.ErrRootMismatch), and rebuild the stack.

const (
	baseFile = "base.bin"
	baseTemp = "base.tmp"
	// legacyCheckpointFile is PR 8's single-checkpoint name; a data dir
	// written before the chain protocol is adopted by renaming it to
	// base.bin at boot (its gob payload decodes as a Seq-0 base).
	legacyCheckpointFile = "checkpoint.bin"
	// initMarker exists while a shard directory is being freshly
	// initialized: present on boot, the half-written bucket files are
	// discarded and initialization restarts. Bucket files WITHOUT a
	// checkpoint and without the marker mean an operator pointed the
	// daemon at a directory whose checkpoint was deleted — refuse, fail
	// closed, rather than silently reinitializing over data.
	initMarker = "INITIALIZING"
)

// deltaName and deltaTempName are the chain-element file names for seq;
// fixed-width so lexicographic directory order is chain order.
func deltaName(seq uint64) string     { return fmt.Sprintf("delta-%06d.bin", seq) }
func deltaTempName(seq uint64) string { return fmt.Sprintf("delta-%06d.tmp", seq) }

// parseDeltaName extracts the sequence number from a delta file name. The
// digit run is parsed without a width cap so chains whose sequence outgrows
// the 6-digit minimum width still recover.
func parseDeltaName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, "delta-")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, ".bin")
	if !ok || digits == "" {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// ErrNoCheckpoint is returned when a shard directory holds bucket files but
// no checkpoint and no initialization marker — recovery is impossible and
// reinitialization would destroy data, so boot refuses.
var ErrNoCheckpoint = errors.New("server: bucket files present without a checkpoint; refusing to reinitialize")

// ErrChainGap is returned when the delta chain has a sequence hole — an
// element was deleted (or never made it to disk while its successors did),
// so the trusted state cannot be reconstructed. Fail closed.
var ErrChainGap = errors.New("server: checkpoint delta chain has a gap; refusing to recover")

// ErrChainOrder is returned when a delta's predecessor hash (or its sealed
// sequence number) does not match its position in the chain — the chain was
// reordered or spliced from elements of different histories. Fail closed.
var ErrChainOrder = errors.New("server: checkpoint delta chain predecessor mismatch (reordered or spliced chain); refusing to recover")

// persistedState is the gob payload sealed into base.bin.
type persistedState struct {
	// Backend is the preset that wrote the checkpoint; with the level count
	// of State it guards against restarting a data dir under a different
	// stack shape (the trusted state would not fit).
	Backend string
	// Restarts counts recoveries; it salts the recovered RNG stream so a
	// restarted shard does not replay the leaf sequence the pre-crash
	// instance already consumed after the checkpoint.
	Restarts uint64
	// Seq is the chain position this base folds up to: deltas with
	// sequence <= Seq predate it and are swept as stale at recovery (a
	// crash between a compaction's base rename and its delta cleanup
	// leaves exactly such files), deltas from Seq+1 upward extend it.
	Seq uint64
	// State is the captured trusted state, including per-level Merkle
	// roots.
	State *pathoram.ShardState
	// Redo carries every bucket dirty in cache at capture time: ciphertext
	// writes the bucket file had not absorbed yet. Replayed idempotently
	// on recovery before root verification.
	Redo []redoLevel
}

// persistedDelta is the gob payload sealed into one delta-NNNNNN.bin chain
// element.
type persistedDelta struct {
	// Backend mirrors persistedState.Backend.
	Backend string
	// Restarts is the writer's restart count; recovery takes the value
	// from the newest chain element (the chain survives restarts without
	// a base rewrite, so the base's count can be stale).
	Restarts uint64
	// Seq is this element's chain position. It must equal the sequence in
	// the file name — a mismatch means the file was renamed into a slot it
	// was not sealed for (ErrChainOrder).
	Seq uint64
	// Prev is the SHA-256 of the predecessor chain element's sealed bytes
	// (base.bin for the first delta). Each element is individually
	// authenticated by crypt.Seal; Prev authenticates their ORDER.
	Prev [sha256.Size]byte
	// Delta is the O(dirty) trusted-state change set since the previous
	// chain element.
	Delta *pathoram.ShardDelta
	// Redo mirrors persistedState.Redo: buckets dirty at this capture.
	Redo []redoLevel
}

type redoLevel struct {
	Level   int
	Buckets []redoBucket
}

type redoBucket struct {
	Idx        uint64
	Ciphertext []byte
}

// persister owns one file-backed shard's durable state: the per-level
// FileStorages and the checkpoint protocol. After construction it is owned
// by the shard's serving goroutine (the sealing Cipher is not
// concurrency-safe, mirroring the per-shard ORAM ciphers).
type persister struct {
	dir       string
	shard     int
	backend   string
	cipher    *crypt.Cipher
	stores    []*pathoram.FileStorage // by level
	restarts  uint64
	ckpts     uint64
	recovered bool
	sync      pathoram.SyncPolicy

	// Chain state. mode selects full (every checkpoint rewrites base.bin)
	// or delta (checkpoints append O(dirty) chain elements); seq/lastHash
	// name the newest chain element and the hash the next delta must link
	// to; chainBytes accumulates sealed delta sizes since the last base so
	// the compactor can fold the chain past compactAfter bytes; haveBase
	// gates delta writes until an initial base exists.
	mode         string
	compactAfter int64
	seq          uint64
	lastHash     [sha256.Size]byte
	chainBytes   int64
	haveBase     bool

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

// newFileShard builds (or recovers) one file-backed shard: the stack plus
// the persister that will checkpoint it. Boot outcomes:
//
//   - checkpoint present           -> recover (fail closed on tampering);
//   - no checkpoint, marker or
//     empty/absent directory       -> fresh initialization;
//   - bucket files, no checkpoint,
//     no marker                    -> ErrNoCheckpoint (fail closed).
func newFileShard(cfg Config, shard int) (*pathoram.Stack, *persister, error) {
	dir := shardDir(cfg.DataDir, shard)
	sync, err := pathoram.ParseSyncPolicy(cfg.Sync)
	if err != nil {
		return nil, nil, err
	}
	p := &persister{
		dir:          dir,
		shard:        shard,
		backend:      cfg.Backend,
		cipher:       crypt.NewCipher(cfg.Key, nil),
		sync:         sync,
		mode:         cfg.CheckpointMode,
		compactAfter: cfg.DeltaCompactAfter,
	}
	// A pre-chain data dir carries its full checkpoint under the old name;
	// adopt it as the chain's base (the gob payload decodes as a Seq-0
	// persistedState, and no deltas exist yet).
	if _, err := os.Stat(filepath.Join(dir, baseFile)); err != nil {
		if _, lerr := os.Stat(filepath.Join(dir, legacyCheckpointFile)); lerr == nil {
			if rerr := os.Rename(filepath.Join(dir, legacyCheckpointFile), filepath.Join(dir, baseFile)); rerr != nil {
				return nil, nil, fmt.Errorf("adopting legacy checkpoint: %w", rerr)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, baseFile)); err == nil {
		b, err := p.recover(cfg, sync)
		if err != nil {
			p.closeStores()
			return nil, nil, err
		}
		return b, p, nil
	}
	if _, err := os.Stat(filepath.Join(dir, initMarker)); err != nil {
		// No checkpoint and no marker: only an empty (or absent) directory
		// may be initialized.
		if ents, err := os.ReadDir(dir); err == nil && len(ents) > 0 {
			return nil, nil, fmt.Errorf("%w (%s)", ErrNoCheckpoint, dir)
		}
	}
	b, err := p.initialize(cfg, sync)
	if err != nil {
		p.closeStores()
		return nil, nil, err
	}
	return b, p, nil
}

// storeConfig builds the FileStorage config for one level.
func storeConfig(cfg Config, dir string, level int, sync pathoram.SyncPolicy) pathoram.FileStorageConfig {
	return pathoram.FileStorageConfig{
		Path:         levelPath(dir, level),
		CacheBuckets: cfg.CacheBuckets,
		Sync:         sync,
		MMap:         cfg.MMap,
	}
}

// initialize creates the shard directory under the crash-safe marker
// protocol, builds a fresh stack on new bucket files, and writes the
// initial checkpoint before removing the marker.
func (p *persister) initialize(cfg Config, sync pathoram.SyncPolicy) (*pathoram.Stack, error) {
	if err := os.MkdirAll(p.dir, 0o700); err != nil {
		return nil, err
	}
	marker := filepath.Join(p.dir, initMarker)
	if err := os.WriteFile(marker, []byte("initializing\n"), 0o600); err != nil {
		return nil, err
	}
	sweepTemps(p.dir)
	factory := func(level int, g pathoram.Geometry) (pathoram.BucketStore, error) {
		fs, err := pathoram.CreateFileStorage(g, storeConfig(cfg, p.dir, level, sync))
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
	if p.mode == CheckpointDelta {
		b.TrackDirty()
	}
	// Settle the freshly initialized tree into the files, then cut the
	// first checkpoint (always a base — the chain needs an anchor) and arm
	// dirty-page pinning.
	for _, fs := range p.stores {
		if err := fs.Flush(); err != nil {
			return nil, err
		}
	}
	if err := p.checkpoint(b); err != nil {
		return nil, err
	}
	if err := os.Remove(marker); err != nil {
		return nil, err
	}
	p.armRetention(cfg)
	return b, nil
}

// recover rebuilds the shard from its checkpoint chain: authenticate and
// unseal the base, fold every delta in sequence order (each element's seal
// authenticates its contents, its Prev hash authenticates its position),
// replay the accumulated redo into the bucket files, re-verify against the
// newest sealed Merkle roots, restore trusted state.
func (p *persister) recover(cfg Config, sync pathoram.SyncPolicy) (*pathoram.Stack, error) {
	// A crash mid-write leaves *.tmp orphans (base.tmp or delta-NNNNNN.tmp);
	// none is part of the chain, so sweep them before reading it.
	sweepTemps(p.dir)
	blob, err := os.ReadFile(filepath.Join(p.dir, baseFile))
	if err != nil {
		return nil, err
	}
	plain, err := crypt.OpenSealed(p.cipher, blob)
	if err != nil {
		return nil, fmt.Errorf("checkpoint base failed authentication (tampered, truncated or wrong key): %w", err)
	}
	var ps persistedState
	if err := gob.NewDecoder(bytes.NewReader(plain)).Decode(&ps); err != nil {
		return nil, fmt.Errorf("decoding checkpoint base: %w", err)
	}
	// The trusted state only fits the stack shape that captured it; refuse
	// a restart under another one before touching any file.
	sc := cfg.stackConfig()
	if wrote, want := shapeLabel(ps.Backend, len(ps.State.Levels)-1), shapeLabel(cfg.Backend, sc.Recursion); wrote != want {
		return nil, fmt.Errorf("checkpoint was written by a %s stack, daemon configured for %s", wrote, want)
	}
	restarts := ps.Restarts
	p.seq = ps.Seq
	p.lastHash = sha256.Sum256(blob)
	p.chainBytes = 0
	if err := p.foldDeltas(cfg, &ps, &restarts); err != nil {
		return nil, err
	}
	geoms := sc.Geometries()
	p.stores = make([]*pathoram.FileStorage, len(geoms))
	for i, g := range geoms {
		fs, err := pathoram.OpenFileStorage(g, storeConfig(cfg, p.dir, i, sync))
		if err != nil {
			return nil, err
		}
		p.stores[i] = fs
	}
	// Redo replay: writes the checkpoint captured that may not have
	// reached the files. Idempotent, so a torn post-checkpoint flush (or a
	// replayed replay after a crash during recovery) converges to the same
	// bytes the sealed roots certify.
	for _, rl := range ps.Redo {
		if rl.Level < 0 || rl.Level >= len(p.stores) {
			return nil, fmt.Errorf("checkpoint redo names level %d of %d", rl.Level, len(p.stores))
		}
		for _, rb := range rl.Buckets {
			p.stores[rl.Level].WriteBucket(rb.Idx, rb.Ciphertext)
		}
	}
	for _, fs := range p.stores {
		if err := fs.Flush(); err != nil {
			return nil, err
		}
	}
	p.restarts = restarts + 1
	factory := func(level int, g pathoram.Geometry) (pathoram.BucketStore, error) {
		return p.stores[level], nil
	}
	b, err := pathoram.RecoverStack(sc, cfg.Key, shardRNG(cfg.Seed, p.shard, p.restarts), factory, ps.State)
	if err != nil {
		return nil, err
	}
	if p.mode == CheckpointDelta {
		b.TrackDirty()
	}
	// A stale marker can survive a crash between checkpoint rename and
	// marker removal during initialization; the checkpoint won.
	os.Remove(filepath.Join(p.dir, initMarker))
	p.recovered = true
	p.haveBase = true
	p.armRetention(cfg)
	return b, nil
}

// foldDeltas extends the decoded base with every live delta chain element
// in sequence order: stale deltas (seq <= base.Seq — leftovers of a crash
// between compaction's base rename and its delta cleanup) are swept, the
// live ones must form a contiguous run from base.Seq+1 whose elements
// authenticate individually (seal) and positionally (Seq + Prev hash).
// Their trusted-state deltas fold into ps.State and their redo records
// append to ps.Redo in chain order (replay order matters: a later element's
// redo must overwrite an earlier one's for buckets both touched). restarts
// tracks the newest chain element's restart count.
func (p *persister) foldDeltas(cfg Config, ps *persistedState, restarts *uint64) error {
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return err
	}
	var seqs []uint64
	for _, e := range ents {
		seq, ok := parseDeltaName(e.Name())
		if !ok {
			continue
		}
		if seq <= ps.Seq {
			os.Remove(filepath.Join(p.dir, e.Name()))
			continue
		}
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for i, seq := range seqs {
		if want := ps.Seq + 1 + uint64(i); seq != want {
			return fmt.Errorf("%w: missing %s, found %s", ErrChainGap, deltaName(want), deltaName(seq))
		}
		blob, err := os.ReadFile(filepath.Join(p.dir, deltaName(seq)))
		if err != nil {
			return err
		}
		plain, err := crypt.OpenSealed(p.cipher, blob)
		if err != nil {
			return fmt.Errorf("%s failed authentication (tampered, truncated or wrong key): %w", deltaName(seq), err)
		}
		var pd persistedDelta
		if err := gob.NewDecoder(bytes.NewReader(plain)).Decode(&pd); err != nil {
			return fmt.Errorf("decoding %s: %w", deltaName(seq), err)
		}
		if pd.Backend != cfg.Backend {
			return fmt.Errorf("%s was written by backend %q, daemon configured for %q", deltaName(seq), pd.Backend, cfg.Backend)
		}
		if pd.Seq != seq {
			return fmt.Errorf("%w: %s is sealed as sequence %d", ErrChainOrder, deltaName(seq), pd.Seq)
		}
		if pd.Prev != p.lastHash {
			return fmt.Errorf("%w: %s does not extend its predecessor", ErrChainOrder, deltaName(seq))
		}
		if err := pathoram.ApplyDelta(ps.State, pd.Delta); err != nil {
			return fmt.Errorf("applying %s: %w", deltaName(seq), err)
		}
		ps.Redo = append(ps.Redo, pd.Redo...)
		*restarts = pd.Restarts
		p.seq = seq
		p.lastHash = sha256.Sum256(blob)
		p.chainBytes += int64(len(blob))
	}
	return nil
}

// sweepTemps removes every *.tmp orphan a crash mid-write can leave in a
// shard directory (base.tmp, delta-NNNNNN.tmp, or PR 8's checkpoint.tmp).
func sweepTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// armRetention pins dirty pages between checkpoints when a checkpoint
// cadence is configured. Without one (CheckpointEvery == 0) the cache may
// spill dirty pages to the files mid-run; a crash then fails closed at next
// boot (root mismatch) and only a clean shutdown is recoverable.
func (p *persister) armRetention(cfg Config) {
	if cfg.CheckpointEvery > 0 {
		for _, fs := range p.stores {
			fs.RetainDirty(true)
		}
	}
}

// checkpoint makes the stack's current trusted state durable: a base
// rewrite in full mode, an O(dirty) chain append in delta mode — except
// when the chain has no anchor yet (first checkpoint) or has outgrown
// compactAfter bytes, in which case the compactor folds it into a fresh
// base. Both paths end with the store flush that unpins the dirty pages.
func (p *persister) checkpoint(b *pathoram.Stack) error {
	start := time.Now()
	var err error
	if p.mode == CheckpointDelta && p.haveBase && !p.needCompact() {
		err = p.writeDelta(b)
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

// needCompact reports whether the delta chain passed the compaction
// threshold (never in full mode, where chainBytes stays zero).
func (p *persister) needCompact() bool {
	return p.compactAfter > 0 && p.chainBytes >= p.compactAfter
}

// captureRedo snapshots every dirty bucket page as redo records.
func (p *persister) captureRedo() []redoLevel {
	var redo []redoLevel
	for i, fs := range p.stores {
		if fs.DirtyCount() == 0 {
			continue
		}
		rl := redoLevel{Level: i, Buckets: make([]redoBucket, 0, fs.DirtyCount())}
		fs.DirtyBuckets(func(idx uint64, ct []byte) {
			rl.Buckets = append(rl.Buckets, redoBucket{Idx: idx, Ciphertext: append([]byte(nil), ct...)})
		})
		redo = append(redo, rl)
	}
	return redo
}

// seal gob-encodes and seals one chain element payload.
func (p *persister) seal(payload any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return nil, err
	}
	return crypt.Seal(p.cipher, buf.Bytes())
}

// writeBlob writes a sealed chain element under the tmp+rename protocol,
// fsyncing file and directory per the sync policy.
func (p *persister) writeBlob(tmpName, finalName string, blob []byte) error {
	tmp := filepath.Join(p.dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
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
	if err := os.Rename(tmp, filepath.Join(p.dir, finalName)); err != nil {
		return err
	}
	if p.sync != pathoram.SyncNone {
		if d, err := os.Open(p.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
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

// writeBase captures the full trusted state into a fresh base.bin, resets
// the chain to it, and sweeps the deltas it folded (a crash between rename
// and sweep leaves stale deltas that recovery removes by Seq).
func (p *persister) writeBase(b *pathoram.Stack) error {
	st, err := b.CaptureState()
	if err != nil {
		return err
	}
	ps := persistedState{Backend: p.backend, Restarts: p.restarts, Seq: p.seq, State: st, Redo: p.captureRedo()}
	blob, err := p.seal(&ps)
	if err != nil {
		return err
	}
	if err := p.writeBlob(baseTemp, baseFile, blob); err != nil {
		return err
	}
	for seq := ps.Seq; seq > 0; seq-- {
		if os.Remove(filepath.Join(p.dir, deltaName(seq))) != nil {
			break // deltas are contiguous; the first miss ends the sweep
		}
	}
	if err := p.flushStores(); err != nil {
		return err
	}
	p.lastHash = sha256.Sum256(blob)
	p.chainBytes = 0
	p.haveBase = true
	p.ckptBytes += uint64(len(blob))
	return nil
}

// writeDelta drains the stack's change journals into the next chain
// element: O(dirty) trusted-state entries plus the dirty-page redo set,
// sealed and linked to the predecessor by hash.
func (p *persister) writeDelta(b *pathoram.Stack) error {
	d, err := b.CaptureDelta()
	if err != nil {
		return err
	}
	seq := p.seq + 1
	pd := persistedDelta{Backend: p.backend, Restarts: p.restarts, Seq: seq, Prev: p.lastHash, Delta: d, Redo: p.captureRedo()}
	blob, err := p.seal(&pd)
	if err != nil {
		return err
	}
	if err := p.writeBlob(deltaTempName(seq), deltaName(seq), blob); err != nil {
		return err
	}
	if err := p.flushStores(); err != nil {
		return err
	}
	p.seq = seq
	p.lastHash = sha256.Sum256(blob)
	p.chainBytes += int64(len(blob))
	p.ckptBytes += uint64(len(blob))
	return nil
}

// shutdown writes the final checkpoint and releases the file handles; the
// resulting directory recovers with zero loss.
func (p *persister) shutdown(b *pathoram.Stack) error {
	err := p.checkpoint(b)
	p.closeStores()
	return err
}

func (p *persister) closeStores() {
	for _, fs := range p.stores {
		if fs != nil {
			fs.Close()
		}
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
