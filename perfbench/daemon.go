package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/recovery"
	"tmesh/internal/rekeyd"
)

// daemon-loopback sizes: 1024 members, 16 leaves and 16 joins per
// boundary, over the in-process loopback transport.
const (
	daemonMembers = 1024
	daemonChurn   = 16
	// daemonMaxBoundaries caps a run; the world's host budget is sized
	// for it, since rekeyd never reuses a departed member's host.
	daemonMaxBoundaries = 2000
)

// daemonWorld is a rekeyd world plus a shadow key tree the benchmark keeps
// to read each boundary's rekey cost, which World.Rekey does not
// return. The shadow runs the same joins and leaves without crypto.
type daemonWorld struct {
	w      *rekeyd.World
	shadow *keytree.Tree
	rng    *rand.Rand
}

// newDaemonWorld is the rekeyd world: initial membership and first
// boundary.
func newDaemonWorld(seed int64, reg *obs.Registry) (*rekeyd.World, error) {
	return rekeyd.NewWorld(rekeyd.WorldConfig{
		Params:           assign.DefaultConfig().Params,
		Seed:             seed,
		InitialMembers:   daemonMembers,
		Transport:        "loopback",
		HostBudget:       daemonChurn * daemonMaxBoundaries,
		RekeyParallelism: nproc(),
		Ladder:           rekeyd.Config{SplitParallelism: nproc()},
		Obs:              reg,
	})
}

// shadowWorld seeds a shadow tree with the world's current members.
func shadowWorld(w *rekeyd.World, seed int64) (*daemonWorld, error) {
	shadow, err := keytree.New(assign.DefaultConfig().Params, []byte("shadow"), keytree.Opts{})
	if err != nil {
		return nil, err
	}
	dw := &daemonWorld{w: w, shadow: shadow, rng: rand.New(rand.NewSource(seed))}
	if _, err := dw.shadowCost(dw.ids(), nil); err != nil {
		return nil, err
	}
	return dw, nil
}

// ids returns the current members, sorted.
func (dw *daemonWorld) ids() []ident.ID {
	ms := dw.w.Members()
	out := make([]ident.ID, len(ms))
	for i, m := range ms {
		out[i] = m.ID()
	}
	return out
}

// shadowCost runs a boundary's churn through the shadow tree and
// returns the message's cost.
func (dw *daemonWorld) shadowCost(joins, leaves []ident.ID) (int, error) {
	sortIDs(joins)
	sortIDs(leaves)
	plan, err := dw.shadow.Mark(joins, leaves)
	if err != nil {
		return 0, fmt.Errorf("shadow tree: %w", err)
	}
	msg, err := dw.shadow.Regenerate(plan, 1)
	if err != nil {
		return 0, fmt.Errorf("shadow tree: %w", err)
	}
	return msg.Cost(), nil
}

func sortIDs(ids []ident.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
}

// check is the correctness gate: every member holds the server's group
// key and none was given up as dead in flight.
func (dw *daemonWorld) check(rr *rekeyd.Result, res *result) {
	for _, id := range rr.DeadInFlight {
		res.fail("member %v dead in flight in interval %d", id, rr.Interval)
	}
	if !rr.Acked() {
		res.fail("interval %d: %d of %d members acked", rr.Interval, len(rr.RungOf), rr.Expected)
	}
	want, ok := dw.w.Tree().GroupKey()
	if !ok {
		res.fail("server holds no group key")
		return
	}
	for _, m := range dw.w.Members() {
		res.attempted++
		if gk, ok := m.GroupKey(); !ok || !gk.Equal(want) {
			res.fail("member %v does not hold the group key of interval %d", m.ID(), rr.Interval)
		}
	}
	if dw.shadow.Size() != dw.w.Tree().Size() {
		res.fail("shadow tree holds %d members, server tree %d", dw.shadow.Size(), dw.w.Tree().Size())
	}
}

// runDaemon is the daemon-loopback workload.
func runDaemon(o runOpts) (*result, error) {
	res := &result{}
	var w *rekeyd.World
	for i := 0; i < o.setups; i++ {
		if w != nil {
			w.Close()
			w = nil
		}
		start := time.Now()
		var err error
		w, err = newDaemonWorld(o.seed, o.reg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, time.Since(start))
	}
	defer w.Close()
	dw, err := shadowWorld(w, o.seed)
	if err != nil {
		return nil, err
	}
	before := o.reg.Snapshot()
	runtime.GC() // start the loop without the earlier set-ups' garbage

	deadline := time.Now().Add(o.seconds)
	for b := 1; more(b, deadline) && b <= daemonMaxBoundaries; b++ {
		members := dw.ids()
		var leaves, joins []ident.ID
		root := o.rec.begin("boundary", b)
		start := time.Now()
		for _, k := range dw.rng.Perm(len(members))[:daemonChurn] {
			res.attempted++
			sp := o.rec.begin("rekeyd.leave", b)
			err := dw.w.Leave(members[k])
			o.rec.end(sp)
			if err != nil {
				res.fail("leave: %v", err)
				continue
			}
			leaves = append(leaves, members[k])
		}
		for i := 0; i < daemonChurn; i++ {
			res.attempted++
			sp := o.rec.begin("rekeyd.join", b)
			id, err := dw.w.Join()
			o.rec.end(sp)
			if err != nil {
				res.fail("join: %v", err)
				continue
			}
			joins = append(joins, id)
		}
		sp := o.rec.begin("rekeyd.rekey", b)
		rekeyStart := time.Now()
		rr, err := dw.w.Rekey()
		d := time.Since(rekeyStart)
		o.rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("boundary %d: %w", b, err)
		}
		res.busy += time.Since(start)
		o.rec.end(root)
		res.rekeys = append(res.rekeys, d)
		res.boundaries++
		res.ops += len(joins) + len(leaves)

		cost, err := dw.shadowCost(joins, leaves)
		if err != nil {
			return nil, err
		}
		res.encs += cost
		rungs := rr.Rungs()
		res.ladderAcked += rungs[recovery.ByUnicast] + rungs[recovery.ByResync]
		res.expected += rr.Expected
		dw.check(rr, res)
	}
	res.heapMB = liveHeapMB()
	runtime.KeepAlive(dw)
	if o.rec != nil {
		res.layers, res.bases = layerMetrics(o.rec, diffSnapshots(before, o.reg.Snapshot()))
	}
	return res, nil
}
