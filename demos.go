package tcoram

import (
	"crypto/rand"
	"math/bits"
	mrand "math/rand"

	"tcoram/internal/adversary"
	"tcoram/internal/core"
	"tcoram/internal/pathoram"
	"tcoram/internal/protocol"
)

// This file exposes the security demonstrations through the public API so
// the examples and cmd/attack exercise the same surface a downstream user
// would.

// DemoORAM is a small functional Path ORAM with byte-accurate encrypted
// storage, suitable for the probing-attack demonstrations. Production
// geometries are costed by the timing model instead
// (pathoram.EstimateAccessLatency).
type DemoORAM = pathoram.ORAM

// NewDemoORAM builds a functional Path ORAM holding 2^(levels-1) leaves of
// Z=3 × 64-byte blocks, keyed randomly, with deterministic leaf remapping
// drawn from seed.
func NewDemoORAM(levels int, seed int64) (*DemoORAM, error) {
	var key [16]byte
	if _, err := rand.Read(key[:]); err != nil {
		return nil, err
	}
	return pathoram.NewORAM(
		pathoram.Geometry{Levels: levels, Z: 3, BlockBytes: 64},
		key, mrand.New(mrand.NewSource(seed)))
}

// NewRootProbe attaches the §3.2 root-bucket probe to a demo ORAM.
func NewRootProbe(o *DemoORAM) *RootProbe { return adversary.NewRootProbe(o) }

// NewMaliciousProgram wraps a secret as Figure 1 (a)'s program P1.
func NewMaliciousProgram(secret []bool) *MaliciousProgram {
	return adversary.NewMaliciousProgram(secret)
}

// LeakDemoResult reports how many secret bits an adversary recovers from
// the ORAM access-time trace under each controller.
type LeakDemoResult struct {
	SecretBits      int
	UnprotectedBits int  // recovered against base_oram
	ShieldedTraceEq bool // true if two different secrets give identical traces under the enforcer
}

// RunLeakDemo executes the Figure 1 demonstration: the malicious program
// transmits the secret through its request times; against base_oram every
// bit is recovered, while the rate enforcer pins the observable trace to
// the slot grid (identical for any secret).
func RunLeakDemo(secret []bool) LeakDemoResult {
	prog := adversary.NewMaliciousProgram(secret)
	step := uint64(prog.StepInstrs) + 1488

	// Unprotected: the adversary decodes the trace directly.
	oram := core.NewUnshieldedORAM(1488)
	oram.RecordSlots = true
	var now uint64
	for i, bit := range secret {
		if s := uint64(i) * step; now < s {
			now = s
		}
		if bit {
			now = oram.Fetch(now, uint64(i))
		}
	}
	decoded := prog.DecodeFromSlots(oram.Slots(), step, len(secret))

	// Shielded: compare the slot trace against an all-zeros secret.
	runShielded := func(sec []bool) []uint64 {
		enf, err := core.NewEnforcer(core.EnforcerConfig{
			ORAMLatency: 1488,
			Rates:       []uint64{1000},
			InitialRate: 1000,
			RecordSlots: true,
		})
		if err != nil {
			panic(err)
		}
		for i, bit := range sec {
			if bit {
				enf.Fetch(uint64(i)*2600, uint64(i))
			}
		}
		enf.Sync(uint64(len(sec)+2) * 2600)
		return core.SlotStarts(enf.Slots())
	}
	a := runShielded(secret)
	b := runShielded(make([]bool, len(secret)))
	eq := len(a) == len(b)
	for i := 0; eq && i < len(a); i++ {
		eq = a[i] == b[i]
	}

	return LeakDemoResult{
		SecretBits:      len(secret),
		UnprotectedBits: adversary.BitsRecovered(secret, decoded),
		ShieldedTraceEq: eq,
	}
}

// BrokenDeterminismDemo re-exports the §8.1 analysis: sweeping memory
// latency jitter up to maxJitter, report whether any replay of the same
// program yields a different rate sequence.
func BrokenDeterminismDemo(baseLatency, maxJitter uint64) (divergent bool, atJitter uint64) {
	d, j, _, _ := adversary.BrokenDeterminismDemo(baseLatency, maxJitter)
	return d, j
}

// NewSecureProcessor manufactures a protocol processor endpoint (2048-bit
// device key).
func NewSecureProcessor() (*SecureProcessor, error) {
	return protocol.NewProcessor(rand.Reader, 2048)
}

// NewProtocolUser creates the user endpoint.
func NewProtocolUser() *User { return protocol.NewUser(rand.Reader) }

// Handshake performs the §8 run-once session-key exchange.
func Handshake(u *User, p *SecureProcessor) error { return protocol.Handshake(u, p) }

// PopCount64 is a tiny convenience for examples summarizing secrets.
func PopCount64(v uint64) int { return bits.OnesCount64(v) }
