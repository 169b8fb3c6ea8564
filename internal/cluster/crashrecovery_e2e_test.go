package cluster

import (
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"tcoram/internal/adversary"
	"tcoram/internal/server"
	"tcoram/internal/workload"
)

// TestClusterCrashRecoveryEndToEnd composes the durable storage tier (ISSUE
// 8) with the failover plane (ISSUE 7): three file-backed oramd processes
// under a K=2 router, one SIGKILLed mid-sweep. Replication covers the
// outage window (zero lost, zero corrupted operations), and afterwards the
// dead daemon is restarted over its own -data-dir: it must come back
// recovered-from-checkpoint, rejoin the pool as healthy, and serve reads —
// while the survivors' rate-change histories still replay to exactly the
// cluster's reported leaked_bits.
func TestClusterCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs external daemons")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	dir := t.TempDir()
	oramd := filepath.Join(dir, "oramd")
	if out, err := exec.Command(goBin, "build", "-o", oramd, "tcoram/cmd/oramd").CombinedOutput(); err != nil {
		t.Fatalf("building oramd: %v\n%s", err, out)
	}

	var (
		addrs   []string
		daemons []*exec.Cmd
		argSets [][]string
	)
	ports := freePorts(t, 3)
	for i := 0; i < 3; i++ {
		addr := ports[i]
		args := []string{
			"-addr", addr,
			"-shards", "1",
			"-blocks", "256",
			"-olat", "5",
			"-rates", "45,195,495,995",
			"-epoch", "20000",
			"-growth", "2",
			"-store", "file",
			"-data-dir", filepath.Join(dir, "node", string(rune('a'+i))),
			"-checkpoint-every", "1",
		}
		cmd := exec.Command(oramd, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
		daemons = append(daemons, cmd)
		argSets = append(argSets, args)
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}
	for _, addr := range addrs {
		rc, err := server.RetryDial(addr, server.RetryConfig{
			Attempts: 200,
			Backoff:  server.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("daemon at %s never came up: %v", addr, err)
		}
		rc.Close()
	}

	r := startRouter(t, Config{
		Nodes:        addrs,
		Epoch:        1,
		Replicas:     2,
		ProbeEvery:   20 * time.Millisecond,
		RetryBackoff: server.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	})
	if r.Blocks() != 384 {
		t.Fatalf("cluster blocks = %d, want 384", r.Blocks())
	}

	// SIGKILL daemon 2 mid-sweep — no shutdown checkpoint; its durable state
	// is whatever its per-slot checkpoints covered, which with
	// -checkpoint-every 1 is every ack it ever sent.
	killed := make(chan struct{})
	timer := time.AfterFunc(300*time.Millisecond, func() {
		daemons[2].Process.Kill()
		daemons[2].Wait()
		close(killed)
	})
	defer timer.Stop()

	for _, sc := range workload.KVScenarios() {
		rep, err := server.RunLoad(
			func() (server.KV, error) { return r, nil },
			func() (server.Stats, error) { return r.ServiceStats() },
			server.LoadConfig{
				Scenario:     sc,
				Clients:      4,
				OpsPerClient: 25,
				Blocks:       r.Blocks(),
				BlockBytes:   64,
				Seed:         91,
			})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if rep.Lost != 0 {
			t.Errorf("%s: %d lost operations across the node kill", sc, rep.Lost)
		}
		if rep.Corrupted != 0 {
			t.Errorf("%s: %d corrupted reads across the node kill", sc, rep.Corrupted)
		}
		if rep.Ops != 100 {
			t.Errorf("%s: completed %d ops, want 100", sc, rep.Ops)
		}
	}
	select {
	case <-killed:
	default:
		t.Fatal("scenario sweep finished before the kill fired — nothing was tested under failover")
	}

	stats, err := r.ServiceStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes[2].Healthy {
		t.Error("killed daemon still marked healthy")
	}
	if stats.Nodes[2].Failovers == 0 {
		t.Error("no failovers recorded during the outage window")
	}

	// Survivor replay: the accounting survives both the crash and the
	// storage tier underneath it.
	var total float64
	for _, sh := range stats.Shards {
		rec := adversary.ReconstructSchedule(sh.RateChanges, 4)
		if math.Abs(rec.Bits-sh.LeakedBits) > 1e-12 {
			t.Errorf("node %d: adversary reconstructs %v bits, node reports %v", sh.Node, rec.Bits, sh.LeakedBits)
		}
		total += rec.Bits
	}
	if math.Abs(total-stats.LeakedBits) > 1e-12 {
		t.Errorf("adversary total %v bits != cluster leaked_bits %v", total, stats.LeakedBits)
	}

	// Restart the killed daemon over its own data dir: the durable tier must
	// bring it back from its sealed checkpoint, and the router's health
	// probe must re-admit it.
	restarted := exec.Command(oramd, argSets[2]...)
	if err := restarted.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		restarted.Process.Kill()
		restarted.Wait()
	})
	rc, err := server.RetryDial(addrs[2], server.RetryConfig{
		Attempts: 200,
		Backoff:  server.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("restarted daemon never came up: %v", err)
	}
	defer rc.Close()
	nst, err := rc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range nst.Shards {
		if sh.Recovery != "recovered" {
			t.Errorf("restarted node shard %d boot outcome %q, want recovered", sh.Shard, sh.Recovery)
		}
		if sh.Failed {
			t.Errorf("restarted node shard %d failed after recovery", sh.Shard)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err = r.ServiceStats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Nodes[2].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon never rejoined the serving pool")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
