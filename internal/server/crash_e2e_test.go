package server

import (
	"bytes"
	"cmp"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"tcoram/internal/workload"
)

// TestEndToEndFileStore is the durable-tier acceptance run: the full
// scenario sweep over TCP against a paced daemon whose shards live in
// bucket files under a temp dir, with a periodic checkpoint cadence. Zero
// lost, zero corrupted — and the storage-tier counters must show the file
// store actually serving.
func TestEndToEndFileStore(t *testing.T) {
	cfg := Config{
		Shards:          4,
		Blocks:          1024,
		BlockBytes:      64,
		ClockHz:         1_000_000,
		ORAMLatency:     200,
		Rates:           []uint64{1800},
		Store:           StoreFile,
		DataDir:         t.TempDir(),
		CheckpointEvery: 16,
		CacheBuckets:    64, // smaller than the tree: exercise eviction + reload
	}
	_, addr := startDaemon(t, cfg)

	statsClient, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer statsClient.Close()

	for _, sc := range workload.KVScenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			rep, err := RunLoad(
				func() (KV, error) { return Dial(addr) },
				func() (Stats, error) { return statsClient.Stats() },
				LoadConfig{
					Scenario:     sc,
					Clients:      8,
					OpsPerClient: 100,
					Blocks:       cfg.Blocks,
					BlockBytes:   cfg.BlockBytes,
					Seed:         42,
				})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Lost != 0 {
				t.Errorf("%s: %d lost requests", sc, rep.Lost)
			}
			if rep.Corrupted != 0 {
				t.Errorf("%s: %d corrupted reads", sc, rep.Corrupted)
			}
			if rep.Ops != 800 {
				t.Errorf("%s: completed %d ops, want 800", sc, rep.Ops)
			}
		})
	}

	stats, err := statsClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range stats.Shards {
		if sh.Failed {
			t.Errorf("shard %d reported failure", sh.Shard)
		}
		if sh.Recovery != "fresh" {
			t.Errorf("shard %d boot outcome %q, want fresh", sh.Shard, sh.Recovery)
		}
		if sh.CacheMisses == 0 || sh.FileReads == 0 {
			t.Errorf("shard %d: a %d-bucket cache served the sweep without touching its file (misses=%d reads=%d)",
				sh.Shard, cfg.CacheBuckets, sh.CacheMisses, sh.FileReads)
		}
		if sh.Checkpoints == 0 {
			t.Errorf("shard %d wrote no checkpoints at cadence %d", sh.Shard, cfg.CheckpointEvery)
		}
	}
}

// TestCrashRecoveryEndToEnd is the kill−9 acceptance: a real oramd process
// with -store file and -checkpoint-every 1 (acks deferred until the
// covering checkpoint is durable) is SIGKILLed mid-run; a second process
// restarted over the same -data-dir must recover every acknowledged write,
// with integrity passing — exactly the paper's trust model carried to disk:
// the files are untrusted, the sealed checkpoint re-verifies them.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs external daemons")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "oramd")
	if out, err := exec.Command(goBin, "build", "-o", bin, "tcoram/cmd/oramd").CombinedOutput(); err != nil {
		t.Fatalf("building oramd: %v\n%s", err, out)
	}
	dataDir := t.TempDir()
	addr := freeLoopbackPort(t)
	args := []string{
		"-addr", addr,
		"-shards", "2",
		"-blocks", "256",
		"-olat", "5",
		"-rates", "45",
		"-store", "file",
		"-data-dir", dataDir,
		"-checkpoint-every", "1",
	}
	start := func() *exec.Cmd {
		cmd := exec.Command(bin, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	dial := func() *RetryClient {
		c, err := RetryDial(addr, RetryConfig{
			Attempts: 200,
			Backoff:  Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("daemon at %s never came up: %v", addr, err)
		}
		return c
	}

	daemon := start()
	c := dial()
	payload := func(i int) []byte {
		return []byte(fmt.Sprintf("acked-%03d", i))
	}
	// Sequential writes over a wrapping address pattern; every returned ack
	// is durable by protocol, so acked[] is exactly what recovery owes us.
	acked := make(map[uint64][]byte)
	for i := 0; i < 150; i++ {
		addr := uint64(i*7) % 256
		if err := doWrite(c, addr, payload(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		acked[addr] = payload(i)
	}

	// SIGKILL: no shutdown checkpoint, no flush, connections die raw.
	daemon.Process.Kill()
	daemon.Wait()
	c.Close()

	start()
	c2 := dial()
	defer c2.Close()
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range st.Shards {
		if sh.Recovery != "recovered" {
			t.Errorf("shard %d reboot outcome %q, want recovered", sh.Shard, sh.Recovery)
		}
		if sh.Failed {
			t.Errorf("shard %d failed after recovery", sh.Shard)
		}
	}
	for addr, want := range acked {
		got, err := doRead(c2, addr)
		if err != nil {
			t.Fatalf("reading acked block %d after crash recovery: %v", addr, err)
		}
		if !bytes.HasPrefix(got, want) {
			t.Errorf("acked block %d reads %q after crash recovery, want prefix %q", addr, got[:len(want)], want)
		}
	}
	// The recovered daemon keeps serving: new writes land and read back.
	if err := doWrite(c2, 9, []byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	got, err := doRead(c2, 9)
	if err != nil || !bytes.HasPrefix(got, []byte("post-crash")) {
		t.Fatalf("post-recovery write/read: %q %v", got, err)
	}
}

// TestCrashRecoveryDeltaChainEndToEnd is the kill−9 acceptance for the
// checkpoint log under compaction: a real oramd with a tiny
// -delta-compact-after (so the run crosses several folds into a fresh
// base.bin) is SIGKILLed mid-run — possibly mid-append or mid-fold — and a
// restart over the same data dir must replay base + log and recover every
// acknowledged write. A planted orphan base.tmp checks the boot-time sweep
// of an interrupted fold.
func TestCrashRecoveryDeltaChainEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs external daemons")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "oramd")
	if out, err := exec.Command(goBin, "build", "-o", bin, "tcoram/cmd/oramd").CombinedOutput(); err != nil {
		t.Fatalf("building oramd: %v\n%s", err, out)
	}
	dataDir := t.TempDir()
	addr := freeLoopbackPort(t)
	args := []string{
		"-addr", addr,
		"-shards", "2",
		"-blocks", "256",
		"-olat", "5",
		"-rates", "45",
		"-store", "file",
		"-data-dir", dataDir,
		"-checkpoint-every", "1",
		"-delta-compact-after", "65536",
	}
	start := func() *exec.Cmd {
		cmd := exec.Command(bin, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	dial := func() *RetryClient {
		c, err := RetryDial(addr, RetryConfig{
			Attempts: 200,
			Backoff:  Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("daemon at %s never came up: %v", addr, err)
		}
		return c
	}

	daemon := start()
	c := dial()
	payload := func(i int) []byte {
		return []byte(fmt.Sprintf("acked-%03d", i))
	}
	acked := make(map[uint64][]byte)
	for i := 0; i < 150; i++ {
		addr := uint64(i*7) % 256
		if err := doWrite(c, addr, payload(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		acked[addr] = payload(i)
	}

	daemon.Process.Kill()
	daemon.Wait()
	c.Close()

	// An interrupted fold leaves base.tmp; plant one to pin the boot-time
	// sweep even if the kill landed elsewhere.
	orphan := filepath.Join(dataDir, "shard-0000", "base.tmp")
	if err := os.WriteFile(orphan, []byte("torn write"), 0o600); err != nil {
		t.Fatal(err)
	}
	// The restarted daemon must not fold: a fold writes base.tmp itself, so
	// one caught mid-write would read as an orphan that survived the sweep.
	args = append(args, "-delta-compact-after", "1073741824")

	start()
	c2 := dial()
	defer c2.Close()
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range st.Shards {
		if sh.Recovery != "recovered" {
			t.Errorf("shard %d reboot outcome %q, want recovered", sh.Shard, sh.Recovery)
		}
		if sh.Failed {
			t.Errorf("shard %d failed after recovery", sh.Shard)
		}
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned base.tmp survived the boot sweep (stat err %v)", err)
	}
	for addr, want := range acked {
		got, err := doRead(c2, addr)
		if err != nil {
			t.Fatalf("reading acked block %d after chain recovery: %v", addr, err)
		}
		if !bytes.HasPrefix(got, want) {
			t.Errorf("acked block %d reads %q after chain recovery, want prefix %q", addr, got[:len(want)], want)
		}
	}
	if err := doWrite(c2, 9, []byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	got, err := doRead(c2, 9)
	if err != nil || !bytes.HasPrefix(got, []byte("post-crash")) {
		t.Fatalf("post-recovery write/read: %q %v", got, err)
	}
}

// doRead and doWrite are one-op submissions through a KV's Do.
func doRead(kv KV, addr uint64) ([]byte, error) {
	ops := []Op{{Addr: addr}}
	err := kv.Do("", ops)
	return ops[0].Data, cmp.Or(err, ops[0].Err)
}

func doWrite(kv KV, addr uint64, data []byte) error {
	ops := []Op{{Addr: addr, Write: true, Data: data}}
	err := kv.Do("", ops)
	return cmp.Or(err, ops[0].Err)
}

// freeLoopbackPort reserves an ephemeral loopback port and releases it for
// a daemon to bind (the tiny reuse race is acceptable on loopback).
func freeLoopbackPort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return fmt.Sprintf("127.0.0.1:%d", l.Addr().(*net.TCPAddr).Port)
}
