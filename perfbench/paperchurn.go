package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/core"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
)

// paper-churn sizes: 1024 members on a fixed pool of 1200 hosts, so
// the gateway routers the pool uses (about 1060) sit just past the
// 1024-entry SPT cache; 16 leaves and 16 joins per boundary.
const (
	paperMembers = 1024
	paperHosts   = 1200
	paperChurn   = 16
	// paperTopologySeed fixes the router graph and where the 1200 hosts
	// attach, as the paper runs on one GT-ITM topology. The workload
	// seed picks the members, the group's randomness and the churn.
	paperTopologySeed = 1
)

// paperWorld is one core.Group on the paper's GT-ITM topology plus the
// benchmark's view of who is in it.
type paperWorld struct {
	g       *core.Group
	net     *countingNet // nil when untraced
	reg     *obs.Registry
	rec     *recorder
	rng     *rand.Rand
	members []ident.ID
	hostOf  map[string]vnet.HostID
	free    []vnet.HostID
	at      time.Duration
}

// newPaperWorld builds the topology, joins the initial members and
// runs the first boundary; the caller gates that boundary with check.
// Host 0 is the key server. A traced world (non-nil reg) counts its
// vnet calls; its spans start once the caller sets rec.
func newPaperWorld(seed int64, reg *obs.Registry) (*paperWorld, error) {
	top, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), 1+paperHosts, paperTopologySeed)
	if err != nil {
		return nil, err
	}
	var net vnet.Network = top
	var cn *countingNet
	if reg != nil {
		cn = &countingNet{net: top}
		net = cn
	}
	g, err := core.NewGroup(core.Config{
		Net:         net,
		ServerHost:  0,
		Assign:      assign.DefaultConfig(),
		Seed:        seed,
		RealCrypto:  true,
		Parallelism: nproc(),
		Obs:         reg,
	})
	if err != nil {
		return nil, err
	}
	w := &paperWorld{
		g: g, net: cn, reg: reg,
		rng:    rand.New(rand.NewSource(seed)),
		hostOf: make(map[string]vnet.HostID, paperMembers),
	}
	for _, i := range w.rng.Perm(paperHosts) {
		w.free = append(w.free, vnet.HostID(1+i))
	}
	for i := 0; i < paperMembers; i++ {
		if _, err := w.join(0); err != nil {
			return nil, err
		}
	}
	if _, _, _, err := w.rekey(0); err != nil {
		return nil, err
	}
	return w, nil
}

// join admits a member at a random free host.
func (w *paperWorld) join(trace int) (time.Duration, error) {
	k := w.rng.Intn(len(w.free))
	host := w.free[k]
	w.free[k] = w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	w.at += time.Second
	sp := w.rec.begin("core.join", trace)
	start := time.Now()
	id, _, err := w.g.Join(host, w.at)
	d := time.Since(start)
	w.rec.end(sp)
	if err != nil {
		return d, fmt.Errorf("join at host %d: %w", host, err)
	}
	w.members = append(w.members, id)
	w.hostOf[id.Key()] = host
	return d, nil
}

// leave removes a random member; its host returns to the pool after
// the boundary so it rejoins later.
func (w *paperWorld) leave(trace int) (vnet.HostID, error) {
	k := w.rng.Intn(len(w.members))
	id := w.members[k]
	w.members[k] = w.members[len(w.members)-1]
	w.members = w.members[:len(w.members)-1]
	sp := w.rec.begin("core.leave", trace)
	err := w.g.Leave(id)
	w.rec.end(sp)
	host := w.hostOf[id.Key()]
	delete(w.hostOf, id.Key())
	return host, err
}

// rekey ends the interval and multicasts the rekey message.
func (w *paperWorld) rekey(trace int) (time.Duration, *keytree.Message, *split.Report, error) {
	start := time.Now()
	sp := w.rec.begin("core.process", trace)
	msg, err := w.g.ProcessInterval()
	w.rec.end(sp)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("process interval: %w", err)
	}
	sp = w.rec.begin("core.distribute", trace)
	rep, err := w.g.DistributeRekey(msg)
	w.rec.end(sp)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("distribute rekey: %w", err)
	}
	return time.Since(start), msg, rep, nil
}

// account adds a boundary's rekey cost and deliveries to the result.
func account(msg *keytree.Message, rep *split.Report, res *result) {
	res.encs += msg.Cost()
	if len(rep.ReceivedPerUser) > 0 {
		total := 0
		for _, n := range rep.ReceivedPerUser {
			total += n
		}
		res.encPerMember = append(res.encPerMember, float64(total)/float64(len(rep.ReceivedPerUser)))
	}
	// Theorem 1: every member receives at most one copy.
	seen := make(map[string]bool, len(rep.Deliveries))
	for _, dl := range rep.Deliveries {
		if seen[dl.To.Key()] {
			res.fail("member %v received a second copy in interval %d", dl.To, msg.Interval)
		}
		seen[dl.To.Key()] = true
	}
}

// check is the correctness gate: every member holds the server's group
// key.
func (w *paperWorld) check(res *result) {
	want, ok := w.g.ServerGroupKey()
	if !ok {
		res.fail("server holds no group key")
		return
	}
	for _, id := range w.members {
		res.attempted++
		if gk, ok := w.g.GroupKeyOf(id); !ok || !gk.Equal(want) {
			res.fail("member %v does not hold the group key of interval %d", id, w.g.Intervals())
		}
	}
}

// runPaperChurn is the paper-churn workload. Each set-up builds a world
// from its own seed derived from the workload seed, and the measured
// time is split evenly across them, so one run averages over several
// memberships instead of resting on one.
func runPaperChurn(o runOpts) (*result, error) {
	res := &result{}
	var delta obsDelta
	var net netCounts
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		w, err := newPaperWorld(o.seed*int64(o.setups)+int64(i), o.reg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, time.Since(start))
		w.check(res)
		d, n, err := w.measure(o.seconds/time.Duration(o.setups), o.rec, res)
		if err != nil {
			return nil, err
		}
		delta, net = delta.add(d), net.add(n)
		if i == o.setups-1 {
			res.heapMB = liveHeapMB()
			runtime.KeepAlive(w)
		}
	}
	if o.rec != nil {
		res.layers, res.bases = layerMetrics(o.rec, delta)
		res.layers["vnet.calls"] = float64(net.calls)
		res.layers["vnet.busy_s"] = secs(net.busy)
		res.layers["vnet.slow_calls"] = float64(net.slow)
	}
	return res, nil
}

// measure runs boundaries on the world for the given time and returns
// the growth of its instruments and vnet counters.
func (w *paperWorld) measure(seconds time.Duration, rec *recorder, res *result) (obsDelta, netCounts, error) {
	w.rec = rec
	if w.net != nil {
		rec.leafClock = w.net.busyTime
	}
	before, netBefore := w.reg.Snapshot(), w.net.counts()
	runtime.GC() // start the loop without the set-up's garbage

	deadline := time.Now().Add(seconds)
	for b := res.boundaries + 1; more(b, deadline); b++ {
		root := w.rec.begin("boundary", b)
		start := time.Now()
		var freed []vnet.HostID
		for i := 0; i < paperChurn; i++ {
			res.attempted++
			host, err := w.leave(b)
			if err != nil {
				res.fail("leave: %v", err)
				continue
			}
			freed = append(freed, host)
			res.ops++
		}
		for i := 0; i < paperChurn; i++ {
			res.attempted++
			d, err := w.join(b)
			if err != nil {
				res.fail("%v", err)
				continue
			}
			res.joins = append(res.joins, d)
			res.ops++
		}
		d, msg, rep, err := w.rekey(b)
		if err != nil {
			return obsDelta{}, netCounts{}, err
		}
		res.busy += time.Since(start)
		w.rec.end(root)
		res.rekeys = append(res.rekeys, d)
		res.boundaries++
		w.free = append(w.free, freed...)
		account(msg, rep, res)
		w.check(res)
	}
	return diffSnapshots(before, w.reg.Snapshot()), w.net.counts().sub(netBefore), nil
}
