package cluster

import (
	"fmt"
	"time"

	"tcoram/internal/server"
)

// Migration: when the node map changes (epoch bump), every block must move
// from its old owners to its new ones without either interrupting service
// or opening a timing channel. The router does it with a watermark over the
// shared address space [0, migrateEnd) — the addresses both topologies can
// hold. Migrated addresses are served by the new topology, unmigrated ones
// by the old, and the watermark only advances under the address's stripe
// gate — so no client operation can interleave with the copy of the block
// it is touching, and no update is lost.
//
// Because both epochs share physical nodes, a copy's writes land on slots
// that may still hold old-layout data. planScan therefore simulates the
// whole copy before the first one runs and picks a scan direction
// (ascending for grows, descending for shrinks — in general, whichever the
// simulation proves safe) under which every slot a copy overwrites belongs
// to a block that is already migrated, already being copied, or outside the
// space served during the migration. A transformation safe in neither
// direction (an arbitrary node permutation, say) is rejected at startup
// with instructions to go through an intermediate epoch, rather than
// silently corrupting data.
//
// While the migration runs, the router serves only the shared space: fresh
// addresses past the old capacity map to physical slots still holding
// old-layout residue, so after the copy phase a scrub phase writes zero
// blocks over the fresh space at the same public rate, and only then does
// the full target space open.
//
// Obliviousness is inherited, not added: each copy is one ordinary Read
// against the old owners and one ordinary Write against the new ones (each
// scrub one ordinary Write), entering the nodes' request queues like any
// client operation and being served in regular paced slots that would
// otherwise carry dummy accesses. A node's externally observable schedule
// is therefore byte-identical with and without an active migration (the
// migration obliviousness test pins this on the slot traces); the only
// migration-dependent observables are the epoch bump and the copy rate
// (MigrateEvery), both public parameters.

// initMigration dials the retiring nodes of the previous topology (nodes
// shared with the current map reuse its pools), learns the old geometry,
// plans a safe scan direction, and starts the copy loop. Called from
// NewRouter with the current topology already established.
func (r *Router) initMigration(prevMap NodeMap, byAddr map[string]*node) error {
	prev := &topology{m: prevMap}
	r.prev = prev // set early so Close cleans up a partial dial
	for i, addr := range prevMap.Nodes {
		if n, ok := byAddr[addr]; ok {
			prev.nodes = append(prev.nodes, n)
			continue
		}
		// Retiring nodes carry negative indices: they are not part of the
		// current topology's node numbering, but stats and Close must still
		// see them.
		n, err := dialNode(-(i + 1), addr, r.cfg.ConnsPerNode)
		if err != nil {
			return fmt.Errorf("cluster: previous topology node %d (%s): %w", i, addr, err)
		}
		prev.nodes = append(prev.nodes, n)
	}
	_, minBlocks, err := r.learnGeometry(prev.nodes)
	if err != nil {
		return fmt.Errorf("cluster: previous topology: %w", err)
	}
	if minBlocks < uint64(prevMap.Replicas) {
		return fmt.Errorf("cluster: previous topology: replication factor %d exceeds the smallest node's %d blocks",
			prevMap.Replicas, minBlocks)
	}
	prev.stripe = prevMap.Stripe(minBlocks)
	prev.blocks = prevMap.Blocks(minBlocks)

	// Only addresses that exist in both topologies are copied: old blocks
	// past the new capacity are dropped (the operator shrank the cluster),
	// new addresses past the old capacity are scrubbed and start fresh.
	r.migrateEnd = r.target
	if prev.blocks < r.migrateEnd {
		r.migrateEnd = prev.blocks
	}
	r.descending, err = planScan(&r.cur, prev, r.migrateEnd)
	if err != nil {
		return err
	}
	if r.descending {
		r.watermark.Store(r.migrateEnd)
	}
	// Until every shared block is copied and the fresh space scrubbed, only
	// the shared space is servable.
	r.served.Store(r.migrateEnd)
	r.migrating.Store(true)
	r.wg.Add(1)
	go r.migrator(r.cfg.MigrateEvery)
	return nil
}

// planScan simulates the copy sweep and returns a scan direction under
// which no copy overwrites a physical slot whose old-layout block is still
// unmigrated and servable. For each shared node, the slot a new-layout
// replica write lands on is inverted through the old layout to the block d
// it would destroy; ascending order is safe when every such d has already
// been copied (d ≤ w), descending when it is yet to come (d ≥ w). Blocks at
// or past migrateEnd are not served during the migration and their slots
// are fair game either way. Grow-by-joining and shrink-by-leaving always
// plan; a transformation safe in neither direction is refused.
func planScan(cur, prev *topology, migrateEnd uint64) (descending bool, err error) {
	prevIdx := make(map[string]int, len(prev.m.Nodes))
	for i, a := range prev.m.Nodes {
		prevIdx[a] = i
	}
	oldN := uint64(len(prev.m.Nodes))
	oldK := uint64(prev.m.Replicas)
	ascOK, descOK := true, true
	reps := make([]int, 0, 8)
	for w := uint64(0); w < migrateEnd; w++ {
		reps = cur.m.ReplicaNodes(w, reps[:0])
		for ri, ni := range reps {
			pi, shared := prevIdx[cur.m.Nodes[ni]]
			if !shared {
				continue
			}
			local := cur.m.ReplicaLocal(w, ri, cur.stripe)
			rr := local / prev.stripe
			if rr >= oldK {
				continue // past the old layout's used region: holds no old block
			}
			// Invert the old layout: replica rr of which block sat at this
			// slot? Offset gives d's stripe-local position, the node identity
			// gives d mod oldN.
			o := local % prev.stripe
			d := oldN*o + (uint64(pi)+oldN-rr%oldN)%oldN
			if d >= migrateEnd || d == w {
				continue
			}
			if d > w {
				ascOK = false
			} else {
				descOK = false
			}
			if !ascOK && !descOK {
				return false, fmt.Errorf("cluster: migrating epoch %d to epoch %d in place would overwrite unmigrated blocks in either scan direction (copying block %d clobbers block %d) — this topology change must go through an intermediate epoch",
					prev.m.Epoch, cur.m.Epoch, w, d)
			}
		}
	}
	if ascOK {
		return false, nil
	}
	return true, nil
}

// migrator runs the copy phase (one block per tick until the watermark
// covers the shared space) and then the scrub phase (one zero block per
// tick over the fresh space), at one constant public rate: a tick performs
// exactly one storage round-trip regardless of what the blocks contain or
// whether a step had to be retried.
func (r *Router) migrator(every time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	copyDone := false
	scrub := r.migrateEnd
	zero := make([]byte, r.blockBytes)
	var one [1]server.Op // every walk's one-op submission
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			if !copyDone {
				copyDone = r.migrateStep(&one)
				continue
			}
			if scrub < r.target {
				// Fresh addresses are not yet servable (check() caps at the
				// shared space), so no gate is needed: the scrub races no one.
				op := server.Op{Addr: scrub, Write: true, Data: zero}
				if r.walk(&one, &r.cur, "", &op); op.Err == nil {
					scrub++
				}
				continue
			}
			r.finishMigration()
			return
		}
	}
}

// migrateStep copies the block at the watermark from the old topology to
// the new one and advances the watermark, all under the address's stripe
// gate — a client op on any address in the same stripe is excluded
// for the duration, so the copy and the watermark flip are atomic with
// respect to the data plane. A failed copy (all old replicas down, say)
// leaves the watermark in place and is retried next tick. one is the
// walks' one-op submission.
func (r *Router) migrateStep(one *[1]server.Op) (done bool) {
	w := r.watermark.Load()
	var addr uint64
	if r.descending {
		if w == 0 {
			return true
		}
		addr = w - 1
	} else {
		if w >= r.migrateEnd {
			return true
		}
		addr = w
	}
	g := r.gate(addr)
	g.Lock()
	defer g.Unlock()
	op := server.Op{Addr: addr}
	if r.walk(one, r.prev, "", &op); op.Err != nil {
		return false
	}
	op.Write = true
	if r.walk(one, &r.cur, "", &op); op.Err != nil {
		return false
	}
	r.copied.Add(1)
	if r.descending {
		r.watermark.Store(addr)
		return addr == 0
	}
	r.watermark.Store(addr + 1)
	return addr+1 >= r.migrateEnd
}

// finishMigration opens the full target space and retires the previous
// topology: the watermark covers the whole shared space and the fresh space
// is scrubbed, so no address routes to the old owners anymore (topoFor's
// prev branch is unreachable), and the pools of nodes that are not part of
// the current map are closed. Closed pools stay closed — a straggling
// operation cannot resurrect a connection to a retired node.
func (r *Router) finishMigration() {
	r.served.Store(r.target)
	r.migrating.Store(false)
	for _, n := range r.prev.nodes {
		if n.index < 0 {
			n.close()
		}
	}
}
