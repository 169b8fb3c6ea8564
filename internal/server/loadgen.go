package server

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tcoram/internal/sim"
	"tcoram/internal/workload"
)

// This file is the load-generation driver shared by cmd/loadgen and the
// end-to-end tests: a pool of client goroutines replays deterministic
// workload.KVStream scenarios against any KV implementation (the in-process
// Store or a TCP Client), validating every read and reporting a
// sim.ServiceReport.

// payload layout for verifiable blocks: a magic tag, the block's own
// address, and the writer/sequence pair. Blocks never written read as all
// zeroes; anything else must carry the magic and the matching address or
// the read is counted corrupted (a cross-block mixup, torn write, or
// routing error).
const (
	payloadMagic = uint32(0x54434f52) // "TCOR"
	payloadBytes = 4 + 8 + 4 + 8
)

// FillPayload encodes a verifiable record for addr into buf (len ≥
// payloadBytes).
func FillPayload(buf []byte, addr uint64, writer uint32, seq uint64) {
	binary.LittleEndian.PutUint32(buf[0:], payloadMagic)
	binary.LittleEndian.PutUint64(buf[4:], addr)
	binary.LittleEndian.PutUint32(buf[12:], writer)
	binary.LittleEndian.PutUint64(buf[16:], seq)
}

// CheckPayload validates a read: all-zero (never written) or a well-formed
// record for the same address.
func CheckPayload(buf []byte, addr uint64) error {
	if len(buf) < payloadBytes {
		return fmt.Errorf("short read: %d bytes", len(buf))
	}
	zero := true
	for _, b := range buf {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return nil
	}
	if got := binary.LittleEndian.Uint32(buf[0:]); got != payloadMagic {
		return fmt.Errorf("bad magic %#x", got)
	}
	if got := binary.LittleEndian.Uint64(buf[4:]); got != addr {
		return fmt.Errorf("payload for block %d surfaced at block %d", got, addr)
	}
	return nil
}

// LoadConfig describes one load scenario run.
type LoadConfig struct {
	Scenario workload.KVScenario
	// Clients is the number of concurrent driver goroutines (default 8).
	Clients int
	// OpsPerClient is the number of operations each client performs
	// (default 200).
	OpsPerClient int
	// Blocks is the address space the scenario covers; must not exceed the
	// serving store's (default 4096).
	Blocks uint64
	// BlockBytes sizes write payloads (default 64; min payloadBytes).
	BlockBytes int
	// Seed makes the run reproducible (default 1).
	Seed int64
	// Tenant tags every operation for the serving side's per-tenant
	// leakage accountant ("" = untenanted).
	Tenant string
	// BatchSize > 1 groups consecutive reads into Do submissions of up to
	// this many addresses (writes and think-time pauses flush the pending
	// batch first) — the contact-discovery submission shape. 0 or 1 submits
	// every op on its own.
	BatchSize int
	// WAN, when enabled, shapes every client's link: ops serialize through
	// WAN.KBps of bandwidth and pay WAN.RTT of propagation delay.
	WAN WANConfig
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Scenario == "" {
		c.Scenario = workload.KVUniform
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 200
	}
	if c.Blocks == 0 {
		c.Blocks = 4096
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RunLoad drives one scenario: Clients goroutines each obtain a KV from
// dial (dial may return the same shared KV every time — *Client multiplexes
// — or a fresh connection per client) and replay OpsPerClient deterministic
// operations. RunLoad never closes what dial returns (it cannot know
// whether connections are shared); the caller owns their lifecycle.
// statsFn, when non-nil, is sampled before and after so the report carries
// the observed real/dummy access deltas; pass nil when the server's stats
// are unreachable.
func RunLoad(dial func() (KV, error), statsFn func() (Stats, error), cfg LoadConfig) (sim.ServiceReport, error) {
	cfg = cfg.withDefaults()
	if cfg.BlockBytes < payloadBytes {
		return sim.ServiceReport{}, fmt.Errorf("server: BlockBytes %d < verifiable payload %d", cfg.BlockBytes, payloadBytes)
	}

	var before Stats
	if statsFn != nil {
		var err error
		if before, err = statsFn(); err != nil {
			return sim.ServiceReport{}, fmt.Errorf("server: sampling stats: %w", err)
		}
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		reads     atomic.Uint64
		writes    atomic.Uint64
		lost      atomic.Uint64
		corrupted atomic.Uint64
		firstErr  atomic.Pointer[error]
	)
	start := time.Now()
	for cl := 0; cl < cfg.Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			kv, err := dial()
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
				lost.Add(uint64(cfg.OpsPerClient))
				return
			}
			kv = WrapWAN(kv, cfg.WAN)
			// Scan clients start at disjoint offsets so together they sweep
			// the space instead of stampeding the same blocks.
			startAddr := uint64(cl) * (cfg.Blocks / uint64(cfg.Clients))
			stream, err := workload.NewKVStream(cfg.Scenario, cfg.Blocks, cfg.Seed+int64(cl)*7919, startAddr)
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
				lost.Add(uint64(cfg.OpsPerClient))
				return
			}
			buf := make([]byte, cfg.BlockBytes)
			local := make([]time.Duration, 0, cfg.OpsPerClient)
			batch := max(cfg.BatchSize, 1)
			pending := make([]Op, 0, batch)
			// flush submits the pending ops as one Do. Each member observes
			// the whole submission's round-trip latency — that is what a
			// contact-discovery client experiences for every address in its
			// batch.
			flush := func() {
				if len(pending) == 0 {
					return
				}
				t0 := time.Now()
				err := kv.Do(cfg.Tenant, pending)
				lat := time.Since(t0)
				for _, op := range pending {
					switch {
					case err != nil || op.Err != nil:
						lost.Add(1)
						continue
					case op.Write:
						writes.Add(1)
					default:
						if CheckPayload(op.Data, op.Addr) != nil {
							corrupted.Add(1)
						}
						reads.Add(1)
					}
					local = append(local, lat)
				}
				pending = pending[:0]
			}
			for i := 0; i < cfg.OpsPerClient; i++ {
				op := stream.Next()
				if op.Pause > 0 {
					// Think time of the phase-shifting scenarios: offered
					// load, not service latency, so it precedes the clock —
					// and closes the current batch, as a real client's
					// submission would end.
					flush()
					time.Sleep(op.Pause)
				}
				if op.Write {
					flush() // a write closes the submission in progress
					FillPayload(buf, op.Addr, uint32(cl), uint64(i))
					pending = append(pending, Op{Addr: op.Addr, Write: true, Data: buf})
					flush()
					continue
				}
				pending = append(pending, Op{Addr: op.Addr})
				if len(pending) >= batch {
					flush()
				}
			}
			flush()
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := sim.ServiceReport{
		Scenario:  string(cfg.Scenario),
		Clients:   cfg.Clients,
		Ops:       reads.Load() + writes.Load(),
		Reads:     reads.Load(),
		Writes:    writes.Load(),
		Elapsed:   elapsed,
		Latency:   sim.SummarizeLatencies(latencies),
		Lost:      lost.Load(),
		Corrupted: corrupted.Load(),
	}
	if statsFn != nil {
		after, err := statsFn()
		if err != nil {
			return rep, fmt.Errorf("server: sampling stats: %w", err)
		}
		br, bd, _ := before.Totals()
		ar, ad, _ := after.Totals()
		rep.RealAccesses = ar - br
		rep.DummyAccesses = ad - bd
		rep.Shards = len(after.Shards)
		rep.RateChanges = after.Transitions - before.Transitions
		rep.LeakedBits = after.LeakedBits - before.LeakedBits
	}
	if ep := firstErr.Load(); ep != nil {
		return rep, *ep
	}
	return rep, nil
}
