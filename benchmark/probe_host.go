package main

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"os"
	"runtime"
	"time"
)

// probeHost records the machine next to the numbers, so that drift between
// boxes is visible in every results.json. calib_ns is a fixed standard
// library AES-CTR round trip over 4 KiB that no code of this repository is
// part of.
func probeHost(out map[string]float64, scale float64) error {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		return err
	}
	iv := make([]byte, aes.BlockSize)
	pt, ct := make([]byte, 4096), make([]byte, 4096)
	iters := int(50000 * scale)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		cipher.NewCTR(block, iv).XORKeyStream(ct, pt)
		cipher.NewCTR(block, iv).XORKeyStream(pt, ct)
	}
	out["host.calib_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	out["host.nproc"] = float64(runtime.NumCPU())
	out["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	out["host.loadavg1"] = loadavg1()
	return nil
}

// loadavg1 is the 1-minute load average, or 0 where /proc has none.
func loadavg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var l float64
	fmt.Sscan(string(data), &l)
	return l
}

// runProbes calls into each layer directly, single-goroutine, with fixed
// iteration counts.
func runProbes(blocksLog2 int, scale float64, scratch string) (map[string]float64, error) {
	out := make(map[string]float64)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	if err := probeHost(out, scale); err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	if err := probePathoram(out, blocksLog2, scale, scratch); err != nil {
		return nil, fmt.Errorf("pathoram probe: %w", err)
	}
	if err := probeCrypt(out, blocksLog2, scale); err != nil {
		return nil, fmt.Errorf("crypt probe: %w", err)
	}
	if err := probeCore(out, scale); err != nil {
		return nil, fmt.Errorf("core probe: %w", err)
	}
	if err := probeWire(out, scale); err != nil {
		return nil, fmt.Errorf("wire probe: %w", err)
	}
	if err := probeCluster(out, scale); err != nil {
		return nil, fmt.Errorf("cluster probe: %w", err)
	}
	return out, nil
}
