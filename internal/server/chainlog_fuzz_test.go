package server

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tcoram/internal/pathoram"
)

// FuzzChainLog throws arbitrary bytes at the code that reads the checkpoint
// files an offline adversary can rewrite: as a chain.log image folded onto a
// real base (framing, torn tails, authentication, ordering), and as an
// unsealed record payload (the fixed-layout decoders, then a decoded delta
// applied to the base). Every input must end in an error or a state, never a
// panic. The seed corpus is a real shard's chain.log and base.bin and the
// unsealed payloads of their records.
func FuzzChainLog(f *testing.F) {
	cfg := fileStoreCfg(f.TempDir(), BackendBatched)
	cfg.Shards = 1
	st, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for addr := uint64(0); addr < 12; addr++ {
		if err := st.Write(addr, []byte{byte(addr)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	cfg = cfg.withDefaults()
	p, err := newPersister(cfg, 0)
	if err != nil {
		f.Fatal(err)
	}
	baseBlob, err := os.ReadFile(filepath.Join(p.dir, baseFile))
	if err != nil {
		f.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(p.dir, logFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(image)
	f.Add(baseBlob)
	sealed, _ := splitLog(slices.Clone(image))
	for _, s := range append(sealed, baseBlob[4:]) {
		payload, err := p.sealer.OpenInPlace(slices.Clone(s))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	base := func(t *testing.T) *record {
		r, err := p.openRecord(slices.Clone(baseBlob[4:]))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, end, err := p.fold(base(t), slices.Clone(data)); err == nil && end > len(data) {
			t.Fatalf("fold accepted %d of %d bytes", end, len(data))
		}
		r, err := decodeRecord(slices.Clone(data))
		if err == nil && r.delta != nil {
			_ = pathoram.ApplyDelta(base(t).state, r.delta)
		}
	})
}
