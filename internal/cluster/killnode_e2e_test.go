package cluster

import (
	"fmt"
	"math"
	"net"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"tcoram/internal/adversary"
	"tcoram/internal/server"
	"tcoram/internal/workload"
)

// TestClusterKillNodeEndToEnd is the elasticity acceptance at full fidelity
// (ISSUE 7): three real oramd processes with dynamic rate epochs, a K=2
// router over them, loadgen's scenario sweep on top — and one daemon killed
// with SIGKILL partway through. The run must complete every scenario with
// zero lost and zero corrupted operations (reads of the dead primary's
// addresses fail over to the surviving replica), the cluster stats must
// show the ejection and the failovers, and the adversary's replay of the
// survivors' rate-change histories must still equal the cluster's reported
// leaked_bits — a node crash does not excuse the accounting.
func TestClusterKillNodeEndToEnd(t *testing.T) {
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

	// Three daemons, one slow shard each, dynamic epochs over four rates so
	// the run leaks a few bits for the replay check to chew on.
	var (
		addrs   []string
		daemons []*exec.Cmd
	)
	ports := freePorts(t, 3)
	for i := 0; i < 3; i++ {
		addr := ports[i]
		cmd := exec.Command(oramd,
			"-addr", addr,
			"-shards", "1",
			"-blocks", "256",
			"-olat", "5",
			"-rates", "45,195,495,995",
			"-epoch", "20000",
			"-growth", "2",
		)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
		daemons = append(daemons, cmd)
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}
	// Wait until every daemon answers before the router's fail-fast dial.
	for _, addr := range addrs {
		rc, err := server.RetryDial(addr, server.RetryConfig{
			Attempts: 100,
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
	// 3 nodes × 256 blocks / 2 replicas = 384 cluster blocks.
	if r.Blocks() != 384 {
		t.Fatalf("cluster blocks = %d, want 384", r.Blocks())
	}

	// SIGKILL daemon 2 mid-sweep: no shutdown handler runs, its connections
	// die raw — the crash the failover plane exists for.
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
	if len(stats.Nodes) != 3 {
		t.Fatalf("stats carry %d node records, want 3", len(stats.Nodes))
	}
	dead := stats.Nodes[2]
	if dead.Healthy {
		t.Error("killed daemon still marked healthy")
	}
	if dead.Ejections == 0 {
		t.Error("killed daemon shows no ejection")
	}
	if dead.Failovers == 0 {
		t.Error("no failovers recorded — reads of the dead primary's addresses never exercised the replica")
	}
	if !stats.Nodes[0].Healthy || !stats.Nodes[1].Healthy {
		t.Error("surviving daemons marked unhealthy")
	}
	if stats.RoutingEpoch != 1 || stats.Replicas != 2 {
		t.Errorf("routing metadata = (epoch %d, replicas %d)", stats.RoutingEpoch, stats.Replicas)
	}

	// The survivors' shard entries replay to exactly the leaked bits the
	// cluster reports: the dead node contributes nothing (its history died
	// with it), and the aggregate stays internally consistent.
	if len(stats.Shards) != 2 {
		t.Fatalf("aggregated %d shard entries, want 2 from the survivors", len(stats.Shards))
	}
	var total float64
	for _, sh := range stats.Shards {
		if sh.Node != 0 && sh.Node != 1 {
			t.Errorf("shard entry tagged node %d, want only survivors", sh.Node)
		}
		rec := adversary.ReconstructSchedule(sh.RateChanges, 4)
		if rec.Transitions == 0 {
			t.Errorf("node %d crossed no epoch boundary over the sweep", sh.Node)
		}
		if math.Abs(rec.Bits-sh.LeakedBits) > 1e-12 {
			t.Errorf("node %d: adversary reconstructs %v bits, node reports %v", sh.Node, rec.Bits, sh.LeakedBits)
		}
		total += rec.Bits
	}
	if math.Abs(total-stats.LeakedBits) > 1e-12 {
		t.Errorf("adversary total %v bits != cluster leaked_bits %v", total, stats.LeakedBits)
	}
}

// freePorts reserves n distinct ephemeral loopback ports for daemons to
// bind. Every listener stays open until all n ports are drawn, so the kernel
// cannot hand one port out twice; releasing each port before drawing the
// next once gave two daemons of one test the same address.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addr := fmt.Sprintf("127.0.0.1:%d", l.Addr().(*net.TCPAddr).Port)
		if seen[addr] {
			t.Fatalf("port %s drawn twice", addr)
		}
		seen[addr] = true
		addrs = append(addrs, addr)
	}
	return addrs
}
