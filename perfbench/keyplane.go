package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"tmesh/internal/grouphost"
	"tmesh/internal/obs"
	"tmesh/internal/work"
	"tmesh/internal/workload"
)

// bulk-churn-keyplane sizes: keyTenants tenants of keyBase members each
// (100k in total); every churn boundary of a tenant carries 1% of it
// as joins and 1% as leaves (workload.MassJoinLeave). One grouphost.Run
// covers keyWarmUp warm-up boundaries per tenant (the initial
// membership) and keyChurnIntervals churn boundaries per tenant; runs
// repeat until the measured time is up, each one a set-up sample.
const (
	keyTenants        = 4
	keyBase           = 25000
	keyChurn          = keyBase / 100
	keyWarmUp         = 2 // MassJoinLeave's warm-up spans two intervals
	keyChurnIntervals = 8
)

// stampWriter is grouphost's Config.Out: it stamps every progress line
// (one per boundary) and keeps the boundary's rekey cost.
type stampWriter struct {
	stamps []time.Time
	costs  []int
	// cpu, when traced, holds the process CPU time at every stamp.
	traced bool
	cpu    []time.Duration
	// at, when set, runs after the stamp of the write it is keyed by.
	at map[int]func()
}

func (s *stampWriter) Write(p []byte) (int, error) {
	s.stamps = append(s.stamps, time.Now())
	if s.traced {
		s.cpu = append(s.cpu, processCPU())
	}
	cost := -1
	if i := bytes.Index(p, []byte("cost=")); i >= 0 {
		rest := p[i+len("cost="):]
		if j := bytes.IndexByte(rest, ' '); j >= 0 {
			rest = rest[:j]
		}
		if n, err := strconv.Atoi(string(rest)); err == nil {
			cost = n
		}
	}
	s.costs = append(s.costs, cost)
	if fn := s.at[len(s.stamps)]; fn != nil {
		fn()
	}
	return len(p), nil
}

// runKeyPlane is the bulk-churn-keyplane workload.
func runKeyPlane(o runOpts) (*result, error) {
	res := &result{}
	pool := work.NewPool(nproc())
	defer pool.Close()

	warm := keyTenants * keyWarmUp
	total := keyTenants * (keyWarmUp + keyChurnIntervals)
	var delta obsDelta
	var boundaryCPU time.Duration
	deadline := time.Now().Add(o.seconds)
	for r := 0; r < o.setups || more(res.boundaries+1, deadline); r++ {
		var before obs.Snapshot
		out := &stampWriter{traced: o.rec != nil, at: map[int]func(){
			warm: func() { before = o.reg.Snapshot() },
			total: func() {
				delta = delta.add(diffSnapshots(before, o.reg.Snapshot()))
				res.heapMB = liveHeapMB()
			},
		}}
		// Every run draws fresh inputs, distinct across workload seeds.
		runSeed := o.seed*1000 + int64(r)
		cfg := grouphost.Config{Seed: runSeed, Pool: pool, Obs: o.reg, Out: out}
		for t := 0; t < keyTenants; t++ {
			cfg.Groups = append(cfg.Groups, grouphost.GroupSpec{
				Name:     fmt.Sprintf("t%d", t),
				Profile:  grouphost.KeyPlane,
				Workload: workload.MassJoinLeave(keyBase, keyChurn, keyChurn, keyChurnIntervals, runSeed*keyTenants+int64(t)),
			})
		}
		runtime.GC() // start without the previous run's garbage
		start := time.Now()
		rootSpan := o.rec.begin("grouphost.run", res.boundaries+1)
		rep, err := grouphost.Run(cfg)
		o.rec.end(rootSpan)
		if err != nil {
			return nil, fmt.Errorf("grouphost run %d: %w", r, err)
		}
		if len(out.stamps) != total {
			return nil, fmt.Errorf("grouphost run %d: %d boundaries, want %d", r, len(out.stamps), total)
		}
		res.setups = append(res.setups, out.stamps[warm-1].Sub(start))
		for i, d := range gaps(start, out.stamps)[warm:] {
			at := out.stamps[warm+i]
			res.boundaries++
			res.rekeys = append(res.rekeys, d)
			res.busy += d
			res.ops += 2 * keyChurn
			res.encs += out.costs[warm+i]
			o.rec.add("grouphost.boundary", res.boundaries, rootSpan, at.Add(-d), at)
			if out.traced {
				boundaryCPU += out.cpu[warm+i] - out.cpu[warm+i-1]
			}
			if out.costs[warm+i] < 0 {
				res.fail("boundary %d: progress line without a cost", res.boundaries)
			}
		}
		// The gate: grouphost audits every boundary of every tenant
		// (k-consistency, delivery, coverage against the server's group
		// key, cluster, ladder) and scores it against the SLOs.
		for _, g := range rep.Groups {
			res.attempted += g.Joins + g.Leaves + g.Audits
		}
		if v := rep.Violations(); v > 0 {
			res.fail("grouphost run %d: %d audit violations", r, v)
			res.failed += v - 1
		}
		if p := rep.SLOPages(); p > 0 {
			res.fail("grouphost run %d: %d SLO pages", r, p)
			res.failed += p - 1
		}
	}
	if o.rec != nil {
		res.layers, res.bases = layerMetrics(o.rec, delta)
		spans := o.rec.totals()
		boundary := spans["grouphost.boundary"].busy
		res.layers["grouphost.boundary_busy_s"] = secs(boundary)
		// keytree.regen_busy_s sums the level-1 subtree units over the
		// pool's workers, so it is taken from the boundaries' CPU time
		// summed over all threads, not from their wall time.
		regen := res.layers["keytree.regen_busy_s"]
		res.layers["grouphost.non_regen_busy_s"] = secs(boundaryCPU) - regen
		res.bases = append(res.bases, fmt.Sprintf(
			"grouphost.non_regen_busy_s = boundary CPU time over all threads - keytree.regen_busy_s summed over %d pool workers = %.6f s - %.6f s (boundary wall time %.6f s)",
			pool.Workers(), secs(boundaryCPU), regen, secs(boundary)))
	}
	return res, nil
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
