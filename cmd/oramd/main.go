// Command oramd serves a sharded, rate-enforced ORAM key-value store over
// TCP (binary frame protocol; see internal/server/wire.go).
//
// Examples:
//
//	oramd -addr :7312 -shards 8 -blocks 65536
//	oramd -addr :7312 -rates 85 -olat 15                 # static 100 µs slots
//	oramd -addr :7312 -rates 100,400,1600,6400 \
//	      -epoch 200000 -growth 2 -leak-budget 64        # dynamic epoch learner
//	oramd -addr :7312 -oram recursive -integrity \
//	      -blocks 1048576 -rates 2700                    # recursive stacks, Merkle-verified
//	oramd -addr :7312 -oram batched -batch-k 4 \
//	      -evict-every 4 -olat 100 -rates 400            # k blocks per slot, deferred eviction
//	oramd -addr :7312 -tenant-budgets alice=32,bob=64    # per-tenant leakage sub-budgets
//	oramd -addr :7312 -unpaced                           # no timing protection
//
// The -stats control verb turns oramd into a client of a running daemon (or
// of an oramproxy, which aggregates a whole cluster): it polls the stats op
// once, prints the JSON snapshot, and exits — the per-node poll the cluster
// routing proxy performs, exposed for operators and scripts:
//
//	oramd -stats -addr 127.0.0.1:7312
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"tcoram/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7312", "listen address")
		statsVerb = flag.Bool("stats", false, "control verb: poll the daemon at -addr for its stats snapshot, print JSON, exit")
	)
	sf := server.NewStoreFlags(flag.CommandLine, server.StoreFlagOptions{Storage: true})
	flag.Parse()

	if *statsVerb {
		if err := pollStats(*addr); err != nil {
			fatal(err)
		}
		return
	}

	cfg, err := sf.Config()
	if err != nil {
		fatal(err)
	}
	st, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	eff := st.Config()
	mode := fmt.Sprintf("paced (rates %v cycles @ %d Hz, OLAT %d)", eff.Rates, eff.ClockHz, eff.ORAMLatency)
	if eff.Unpaced {
		mode = "UNPACED (no timing protection)"
	} else if eff.EpochFirstLen > 0 {
		mode += fmt.Sprintf(", dynamic epochs (first %d, growth %d)", eff.EpochFirstLen, eff.EpochGrowth)
	}
	fmt.Printf("oramd: serving %d blocks × %d B over %d %s shards on %s — %s\n",
		eff.Blocks, eff.BlockBytes, eff.Shards, eff.BackendLabel(), l.Addr(), mode)
	if len(eff.TenantBudgets) > 0 {
		fmt.Printf("oramd: enforcing %d per-tenant leakage sub-budgets\n", len(eff.TenantBudgets))
	}
	if eff.Store == server.StoreFile {
		recovered := 0
		for _, ss := range st.Stats().Shards {
			if ss.Recovery == "recovered" {
				recovered++
			}
		}
		fmt.Printf("oramd: file store in %s — %d/%d shards recovered from checkpoints (checkpoint-every %d, sync %s)\n",
			eff.DataDir, recovered, eff.Shards, eff.CheckpointEvery, eff.Sync)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- server.Serve(l, st) }()
	select {
	case s := <-sig:
		fmt.Printf("oramd: %v — shutting down\n", s)
	case err := <-done:
		if !server.IsClosedErr(err) {
			fmt.Fprintf(os.Stderr, "oramd: accept: %v\n", err)
		}
	}
	l.Close()
	st.Close()

	stats := st.Stats()
	real, dummy, coalesced := stats.Totals()
	fmt.Printf("oramd: served %d real + %d dummy accesses (dummy fraction %.3f), %d coalesced\n",
		real, dummy, stats.DummyFraction(), coalesced)
	if !eff.Unpaced {
		fmt.Printf("oramd: %s\n", stats.LeakageSummary())
		if warning, ok := stats.SlipWarning(); ok {
			fmt.Printf("oramd: %s\n", warning)
		}
		for _, ts := range stats.Tenants {
			fmt.Printf("oramd: tenant %q leaked %.1f bits over %d transitions (budget %.1f, exceeded %v)\n",
				ts.Tenant, ts.LeakedBits, ts.Transitions, ts.BudgetBits, ts.Exceeded)
		}
	}
}

// pollStats fetches one stats snapshot from a running daemon (or proxy) and
// prints it as indented JSON — the machine-readable face of the summary the
// daemon prints at shutdown, available while it serves.
func pollStats(addr string) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "oramd: %v\n", err)
	os.Exit(1)
}
