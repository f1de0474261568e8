// Package chaos is a deterministic fault-injection soak engine for the
// whole T-mesh stack. It drives an N-interval group session over the
// discrete event engine — joins, leaves, correlated crash bursts,
// cluster-leader kills, crash-during-rekey, per-hop message loss, delay
// spikes, and router-level partitions — with every random choice drawn
// from seed-derived sub-RNGs, so two runs with the same configuration
// replay byte-identically (tests compare whole report strings).
//
// After every rekey interval an auditor registry checks the paper's
// claims against the live state:
//
//   - k-consistency — Definition 3 holds for every table entry a churned
//     ID can affect (overlay.CheckConsistencyUnder), with a periodic and
//     final full sweep;
//   - delivery — the interval's data multicast delivered at most one
//     copy per user (Theorem 1), exactly one in fault-free intervals;
//   - coverage — every surviving member that was in the group at rekey
//     time holds the interval's group key (Lemma 3 / Theorem 2), whether
//     it arrived by multicast, unicast recovery, or full resync;
//   - cluster — bottom-cluster leaders are unique, alive, the
//     earliest-joined member of their cluster, and leadership epochs
//     grow monotonically (Appendix B);
//   - ladder — every user that entered recovery either completed a rung
//     or died; no delivery chain is left dangling.
//
// Rekey messages travel the degradation ladder
// (recovery.DistributeLadder): multicast, then per-user unicast recovery
// with capped exponential backoff, then a reliable full resync.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tmesh/internal/eventsim"
	"tmesh/internal/failover"
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/metrics"
	"tmesh/internal/obs"
	"tmesh/internal/obs/slo"
	"tmesh/internal/obs/trace"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/split"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
	"tmesh/internal/work"
)

// Config parameterises a soak session.
type Config struct {
	Params ident.Params
	K      int
	Seed   int64

	Intervals      int
	IntervalLength time.Duration
	InitialMembers int

	// Per-interval churn ceilings; actual counts are drawn uniformly
	// from [0, ceiling].
	MaxJoins, MaxLeaves, MaxCrashes int
	// LeaderKillRate is the probability that a crash targets a current
	// bottom-cluster leader instead of a uniformly random member.
	LeaderKillRate float64
	// BurstRate is the probability that an interval's crashes land as a
	// correlated burst of BurstSize within a few hundred milliseconds.
	BurstRate float64
	BurstSize int

	// HopLoss is the per-hop drop probability applied to multicast hops
	// and recovery unicasts.
	HopLoss float64
	// PartitionRate is the probability that an interval isolates one
	// transit domain for its middle stretch.
	PartitionRate float64
	// SpikeRate and SpikeFactor control delay spikes: with probability
	// SpikeRate an interval multiplies all host-to-host delays by
	// SpikeFactor for its middle stretch.
	SpikeRate   float64
	SpikeFactor float64

	// Failure detection (failover.Config).
	PingInterval time.Duration
	Misses       int

	// Degradation ladder (recovery.LadderConfig).
	Timeout, RetryBase, RetryMax time.Duration
	RetryBudget                  int
	Mode                         split.Mode

	// FullSweepEvery runs the O(N·D·B) full consistency sweep every
	// k-th interval on top of the scoped per-churn checks (0 disables;
	// the final sweep always runs).
	FullSweepEvery int

	// RekeyParallelism is the width of the work.Pool that runs the
	// key-regeneration stage (keytree.Regenerate) and the split-index
	// compilation the distribution ladder performs per rekey. Values
	// <= 1 run sequentially; either way the rekey messages and split decisions
	// are byte-identical, so replay comparisons hold across settings.
	RekeyParallelism int

	Topology vnet.GTITMConfig

	// Obs is the optional telemetry registry: phase spans (inject,
	// rekey, deliver, audit), per-auditor pass/fail counters and
	// durations, and the ladder/keytree counters of the stages the soak
	// drives. Nil (the default) disables all instrumentation; the report
	// is byte-identical either way.
	Obs *obs.Registry
	// Sink, when non-nil, receives one structured JSONL record per
	// audited interval. Records carry only deterministic fields (counts,
	// virtual times, audit verdicts) — never wall-clock durations — so
	// seed-identical runs emit byte-identical streams.
	Sink *obs.Sink

	// TraceSink, when non-nil, arms the flight recorder: sampled
	// intervals trace their data probe and rekey ladder hop by hop into
	// this JSONL sink (see internal/obs/trace). Like Sink, records are
	// fully deterministic, and the soak report is byte-identical with
	// tracing on or off.
	TraceSink *obs.Sink
	// TraceSample traces every k-th interval (<= 1 traces all). Only
	// meaningful with TraceSink set.
	TraceSample int
}

// DefaultConfig returns a soak tuned for the acceptance bar: >= 20
// intervals, >= 10k events, every fault class enabled.
func DefaultConfig(seed int64) Config {
	return Config{
		Params:         ident.Params{Digits: 3, Base: 8},
		K:              3,
		Seed:           seed,
		Intervals:      20,
		IntervalLength: 20 * time.Second,
		InitialMembers: 250,
		MaxJoins:       6,
		MaxLeaves:      5,
		MaxCrashes:     3,
		LeaderKillRate: 0.3,
		BurstRate:      0.25,
		BurstSize:      3,
		HopLoss:        0,
		PartitionRate:  0.2,
		SpikeRate:      0.25,
		SpikeFactor:    3,
		PingInterval:   2 * time.Second,
		Misses:         2,
		Timeout:        1500 * time.Millisecond,
		RetryBase:      200 * time.Millisecond,
		RetryMax:       time.Second,
		RetryBudget:    3,
		// The paper's splitting scheme is the thing under test: run the
		// ladder's multicast rung with per-encryption splitting so the
		// Theorem 2 trace audit has real split decisions to check.
		Mode:           split.PerEncryption,
		FullSweepEvery: 5,
		// Exercise the parallel regeneration path by default so the
		// race-enabled soak drives it; determinism auditors confirm the
		// output matches the sequential contract.
		RekeyParallelism: 4,
		Topology: vnet.GTITMConfig{
			TransitDomains:   2,
			TransitPerDomain: 2,
			StubsPerTransit:  2,
			TotalRouters:     120,
			TotalLinks:       300,
			AccessDelayMin:   time.Millisecond,
			AccessDelayMax:   3 * time.Millisecond,
		},
	}
}

// rekeyBatch drives the key tree's staged rekey pipeline (mark, then
// regenerate on the tree's pool) — the same engine the core Group and
// the experiment harness use. label, when non-empty, tags the stages
// with pprof {group, stage} labels.
func rekeyBatch(tree *keytree.Tree, joins, leaves []ident.ID, label string) (*keytree.Message, error) {
	var plan *keytree.BatchPlan
	var err error
	obs.WithStage(label, "mark", func() { plan, err = tree.Mark(joins, leaves) })
	if err != nil {
		return nil, err
	}
	var msg *keytree.Message
	obs.WithStage(label, "regen", func() { msg, err = tree.Regenerate(plan, 1) })
	return msg, err
}

// Interval phase fractions: churn lands in the first 45%, the Theorem 1
// data probe at 50%, the rekey multicast at 60%, and the audit at the
// boundary. Network faults hold over the middle stretch so they overlap
// both multicasts and the recovery ladder.
const (
	phaseChurnStart = 0.05
	phaseChurnEnd   = 0.45
	phaseData       = 0.50
	phaseRekey      = 0.60
	phaseFaultStart = 0.48
	phaseFaultEnd   = 0.85
)

func (c Config) validate() error {
	switch {
	case c.Intervals < 1 || c.InitialMembers < 2:
		return fmt.Errorf("chaos: need >= 1 interval and >= 2 initial members")
	case c.K < 1:
		return fmt.Errorf("chaos: K must be >= 1")
	case c.IntervalLength <= 0:
		return fmt.Errorf("chaos: IntervalLength must be positive")
	case c.MaxJoins < 0 || c.MaxLeaves < 0 || c.MaxCrashes < 0 || c.BurstSize < 0:
		return fmt.Errorf("chaos: churn ceilings must be non-negative")
	case c.HopLoss < 0 || c.HopLoss >= 1:
		return fmt.Errorf("chaos: HopLoss must be in [0, 1)")
	case c.SpikeRate > 0 && c.SpikeFactor < 1:
		return fmt.Errorf("chaos: SpikeFactor must be >= 1")
	}
	// Detections of the last in-window crash must complete before the
	// audit, or the audit would see mid-repair state.
	worstDetect := failover.WorstCaseDetection(failover.Config{
		PingInterval: c.PingInterval, Misses: c.Misses,
	}, 2*c.Topology.AccessDelayMax)
	if frac(c.IntervalLength, phaseChurnEnd)+worstDetect >= c.IntervalLength {
		return fmt.Errorf("chaos: IntervalLength %v too short for detection (worst case %v after churn window)",
			c.IntervalLength, worstDetect)
	}
	// The ladder's worst chain (timeout, all backoffs, resync) must fit
	// between the rekey point and the audit.
	ladderWorst := c.Timeout + time.Duration(c.RetryBudget)*c.RetryMax + time.Second
	if frac(c.IntervalLength, phaseRekey)+ladderWorst >= c.IntervalLength {
		return fmt.Errorf("chaos: IntervalLength %v too short for the recovery ladder (worst chain %v)",
			c.IntervalLength, ladderWorst)
	}
	return nil
}

func frac(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// chaosNet wraps the topology to apply delay spikes: a factor > 1
// scales every host-to-host delay (access delays included via RTT)
// while the router graph, link paths, and host attachments stay fixed.
// Uniform scaling preserves RTT ordering, so neighbor selection is
// unperturbed.
type chaosNet struct {
	vnet.Network
	factor float64
}

func (c *chaosNet) scale(d time.Duration) time.Duration {
	if c.factor <= 1 {
		return d
	}
	return time.Duration(float64(d) * c.factor)
}

func (c *chaosNet) RTT(a, b vnet.HostID) time.Duration    { return c.scale(c.Network.RTT(a, b)) }
func (c *chaosNet) OneWay(a, b vnet.HostID) time.Duration { return c.scale(c.Network.OneWay(a, b)) }
func (c *chaosNet) GatewayRTT(a, b vnet.HostID) time.Duration {
	return c.scale(c.Network.GatewayRTT(a, b))
}

type crashInfo struct {
	id ident.ID
	at time.Duration
}

// Engine runs one soak session. Build with New, run with Run; an Engine
// is single-use and not safe for concurrent use.
type Engine struct {
	cfg Config
	sim *eventsim.Simulator
	top *vnet.GTITM
	net *chaosNet
	dir *overlay.Directory
	mon *failover.Monitor
	// tree is the full modified key tree the real rekey messages come
	// from; mirror tracks bottom clusters for the Appendix B audit.
	tree   *keytree.Tree
	mirror *clusterMirror
	// pool runs regeneration (through the tree's Opts) and the ladder's
	// split compilation.
	pool *work.Pool

	// Seed-derived sub-RNGs, one per concern, so adding draws to one
	// fault class cannot shift every other class's choices.
	memRNG, crashRNG, lossRNG, faultRNG, idRNG *rand.Rand

	freeHosts []vnet.HostID
	killed    map[string]bool // engine-side view of scheduled kills

	partition *vnet.Partition

	// Since-last-rekey batches.
	joinedSince     map[string]overlay.Record
	leftSince       map[string]ident.ID
	crashPending    map[string]crashInfo
	evictedUnbatch  map[string]ident.ID
	inTree          map[string]bool
	churnSinceAudit map[string]ident.ID

	// Live results of the current interval.
	curData     *tmesh.Result
	dataMembers []memberSnap // alive members at data send
	curLadder   *recovery.LadderResult
	rekeyLive   []memberSnap // alive members at rekey send
	lastEpoch   map[string]uint64

	// Per-soak arenas: the data probe and the rekey ladder each keep
	// their own transport arena (their results overlap within an
	// interval), and the split compiler reuses one arena across
	// intervals. Safe because each interval's results are consumed by
	// the audit before the next interval's sends reuse the storage.
	dataArena  *tmesh.Arena
	rekeyArena *tmesh.Arena
	splitArena *split.CompileArena[keycrypt.Encryption]

	// Streaming (constant-memory) delivery-delay percentiles over the
	// whole soak, fed in deterministic member order at each audit so
	// same-seed runs report identical estimates.
	dataDelay  *metrics.StreamingSummary
	keyDelay   *metrics.StreamingSummary
	rekeyStart time.Duration // virtual send time of the current rekey

	// Flight recorder (nil when Config.TraceSink is nil) and the open
	// traces of the current sampled interval.
	trec          *trace.Recorder
	curDataTrace  *trace.Trace
	curRekeyTrace *trace.Trace

	// slo evaluates the per-boundary service objectives. It always runs
	// (its inputs are deterministic counts and sim-time latencies), so
	// the report's verdict totals are byte-identical with the ops plane
	// on or off; the sink and gauges inside are nil-safe.
	slo *slo.Engine
	// profLabel tags pipeline stages with pprof {group, stage} labels
	// when the ops plane is armed (Config.Obs non-nil); empty otherwise,
	// keeping the uninstrumented hop path label-free.
	profLabel string

	auditors []Auditor
	rep      *Report
}

type memberSnap struct {
	id  ident.ID
	key string
}

// New builds a soak engine: topology, directory with the initial
// membership, failure monitor, key tree, and cluster mirror.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	totalHosts := 1 + cfg.InitialMembers + cfg.Intervals*cfg.MaxJoins
	top, err := vnet.NewGTITM(cfg.Topology, totalHosts, cfg.Seed)
	if err != nil {
		return nil, err
	}
	net := &chaosNet{Network: top, factor: 1}
	dir, err := overlay.NewDirectory(cfg.Params, cfg.K, net, 0)
	if err != nil {
		return nil, err
	}
	profLabel := ""
	if cfg.Obs != nil {
		profLabel = "chaos"
	}
	pool := work.NewPool(max(cfg.RekeyParallelism, 1))
	tree, err := keytree.New(cfg.Params, seedBytes(cfg.Seed), keytree.Opts{Obs: cfg.Obs, Label: profLabel, Pool: pool})
	if err != nil {
		return nil, err
	}
	mirror, err := newClusterMirror(cfg.Params, seedBytes(cfg.Seed))
	if err != nil {
		return nil, err
	}

	e := &Engine{
		cfg:             cfg,
		sim:             eventsim.New(),
		top:             top,
		net:             net,
		dir:             dir,
		tree:            tree,
		mirror:          mirror,
		pool:            pool,
		memRNG:          rand.New(rand.NewSource(cfg.Seed ^ 0x6d656d)), // "mem"
		crashRNG:        rand.New(rand.NewSource(cfg.Seed ^ 0x637273)), // "crs"
		lossRNG:         rand.New(rand.NewSource(cfg.Seed ^ 0x6c6f73)), // "los"
		faultRNG:        rand.New(rand.NewSource(cfg.Seed ^ 0x666c74)), // "flt"
		idRNG:           rand.New(rand.NewSource(cfg.Seed ^ 0x696473)), // "ids"
		killed:          make(map[string]bool),
		joinedSince:     make(map[string]overlay.Record),
		leftSince:       make(map[string]ident.ID),
		crashPending:    make(map[string]crashInfo),
		evictedUnbatch:  make(map[string]ident.ID),
		inTree:          make(map[string]bool),
		churnSinceAudit: make(map[string]ident.ID),
		lastEpoch:       make(map[string]uint64),
		dataArena:       tmesh.NewArena(cfg.InitialMembers + 1),
		rekeyArena:      tmesh.NewArena(cfg.InitialMembers + 1),
		splitArena:      split.NewCompileArena[keycrypt.Encryption](),
		dataDelay:       metrics.NewStreamingSummary(),
		keyDelay:        metrics.NewStreamingSummary(),
		profLabel:       profLabel,
		rep:             &Report{Seed: cfg.Seed},
	}
	e.slo = slo.New(slo.Config{
		Group: "chaos",
		Sink:  cfg.Sink,
		Obs:   cfg.Obs.Namespace("chaos_"),
	})
	if cfg.TraceSink != nil {
		e.trec = trace.NewRecorder(cfg.Seed, cfg.TraceSink)
	}
	e.auditors = defaultAuditors()
	for _, a := range e.auditors {
		e.rep.Auditors = append(e.rep.Auditors, a.Name)
	}

	// Initial membership, host 0 is the key server.
	for h := 1; h < totalHosts; h++ {
		e.freeHosts = append(e.freeHosts, vnet.HostID(h))
	}
	var initial []ident.ID
	for i := 0; i < cfg.InitialMembers; i++ {
		id, err := e.freeID()
		if err != nil {
			return nil, err
		}
		rec := overlay.Record{Host: e.popHost(), ID: id, JoinTime: 0}
		if err := dir.Join(rec); err != nil {
			return nil, err
		}
		if err := mirror.join(rec); err != nil {
			return nil, err
		}
		initial = append(initial, id)
		e.inTree[id.Key()] = true
	}
	sort.Slice(initial, func(i, j int) bool { return initial[i].Compare(initial[j]) < 0 })
	if _, err := rekeyBatch(tree, initial, nil, profLabel); err != nil {
		return nil, err
	}
	if _, err := mirror.process(); err != nil {
		return nil, err
	}

	mon, err := failover.New(failover.Config{
		Dir:          dir,
		Sim:          e.sim,
		PingInterval: cfg.PingInterval,
		Misses:       cfg.Misses,
		Rand:         rand.New(rand.NewSource(cfg.Seed ^ 0x70686173)), // "phas"
	})
	if err != nil {
		return nil, err
	}
	e.mon = mon
	return e, nil
}

func seedBytes(seed int64) []byte {
	return []byte(fmt.Sprintf("chaos-%d", seed))
}

func (e *Engine) popHost() vnet.HostID {
	h := e.freeHosts[0]
	e.freeHosts = e.freeHosts[1:]
	return h
}

// freeID draws an unused ID uniformly from the ID space.
func (e *Engine) freeID() (ident.ID, error) {
	for tries := 0; tries < 64*e.cfg.Params.Capacity(); tries++ {
		id, err := ident.FromInt(e.cfg.Params, e.idRNG.Intn(e.cfg.Params.Capacity()))
		if err != nil {
			return ident.ID{}, err
		}
		// The mirror can briefly hold an evicted crasher the engine has
		// not reaped yet; skip those too so dir and mirror never diverge.
		if _, taken := e.dir.Record(id); !taken && !e.mirror.has(id.Key()) {
			return id, nil
		}
	}
	return ident.ID{}, fmt.Errorf("chaos: ID space exhausted (%d members of %d)",
		e.dir.Size(), e.cfg.Params.Capacity())
}

// dropHop is the per-hop loss model shared by both multicasts: a hop is
// lost when the active partition cuts it or the loss coin says so.
func (e *Engine) dropHop(from, to vnet.HostID) bool {
	if e.partition != nil && e.partition.Cuts(from, to) {
		return true
	}
	return e.cfg.HopLoss > 0 && e.lossRNG.Float64() < e.cfg.HopLoss
}

// dropUnicast applies the same model to one recovery exchange with the
// server.
func (e *Engine) dropUnicast(u ident.ID, attempt int) bool {
	rec, ok := e.dir.Record(u)
	if !ok {
		return true
	}
	server := e.dir.Server().Host()
	if e.partition != nil && e.partition.Cuts(server, rec.Host) {
		return true
	}
	return e.cfg.HopLoss > 0 && e.lossRNG.Float64() < e.cfg.HopLoss
}

// alive reports engine-level liveness: not crashed and not scheduled to
// crash (a user with a pending kill still responds until the crash
// fires, but excluding it keeps victim picks and snapshots stable).
func (e *Engine) alive(id ident.ID) bool {
	return e.mon.Alive(id) && !e.killed[id.Key()]
}

// traceInterval reports whether the flight recorder samples the given
// 1-based interval (every TraceSample-th interval, starting at the
// first).
func (e *Engine) traceInterval(index int) bool {
	if e.trec == nil {
		return false
	}
	k := e.cfg.TraceSample
	if k <= 1 {
		return true
	}
	return (index-1)%k == 0
}

// liveMembers returns the alive members in ID order.
func (e *Engine) liveMembers() []ident.ID {
	var out []ident.ID
	for _, id := range e.dir.IDs() {
		if e.alive(id) {
			out = append(out, id)
		}
	}
	return out
}

// Run executes the soak and returns its report.
func (e *Engine) Run() (*Report, error) {
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
			e.sim.Stop()
		}
	}

	L := e.cfg.IntervalLength
	for i := 0; i < e.cfg.Intervals; i++ {
		e.planInterval(i, time.Duration(i)*L, fail)
	}
	e.sim.Run()
	if runErr != nil {
		return nil, runErr
	}

	// End-of-run checks: the queue must have drained (the drain
	// invariant) and the full Definition 3 sweep must pass.
	if n := e.sim.Pending(); n != 0 {
		e.rep.FinalViolations = append(e.rep.FinalViolations,
			fmt.Sprintf("drain: %d events still queued after the session", n))
	}
	if err := e.dir.CheckConsistency(); err != nil {
		e.rep.FinalViolations = append(e.rep.FinalViolations,
			fmt.Sprintf("k-consistency: final full sweep: %v", err))
	}
	e.rep.TotalEvents = e.sim.Processed()
	e.rep.PastClamps = e.sim.PastClamps()
	e.rep.FinalMembers = e.dir.Size()
	e.rep.DataDelayMS = e.dataDelay.Summary()
	e.rep.KeyDelayMS = e.keyDelay.Summary()
	e.rep.SLOOK, e.rep.SLOWarn, e.rep.SLOPage = e.slo.Totals()
	return e.rep, nil
}

// planInterval draws the interval's plan from the sub-RNGs (in a fixed
// order, so plans are independent of execution) and schedules its
// events. start is the interval's base virtual time.
func (e *Engine) planInterval(idx int, start time.Duration, fail func(error)) {
	cfg := e.cfg
	L := cfg.IntervalLength
	at := func(f float64) time.Duration { return start + frac(L, f) }
	churnSpan := frac(L, phaseChurnEnd-phaseChurnStart)

	stats := &IntervalStats{Index: idx + 1, PartitionDomain: -1}
	e.rep.Intervals = append(e.rep.Intervals, IntervalStats{})
	slot := len(e.rep.Intervals) - 1

	// Membership plan.
	nJoins := intn(e.memRNG, cfg.MaxJoins+1)
	nLeaves := intn(e.memRNG, cfg.MaxLeaves+1)
	joinTimes := drawTimes(e.memRNG, nJoins, at(phaseChurnStart), churnSpan)
	leaveTimes := drawTimes(e.memRNG, nLeaves, at(phaseChurnStart), churnSpan)

	// Crash plan: either independent crashes spread over the window or
	// one correlated burst inside a single detection window.
	nCrashes := intn(e.crashRNG, cfg.MaxCrashes+1)
	burst := cfg.BurstSize > 0 && e.crashRNG.Float64() < cfg.BurstRate
	var crashTimes []time.Duration
	if burst {
		stats.Burst = true
		t0 := at(phaseChurnStart) + time.Duration(e.crashRNG.Int63n(int64(churnSpan)))
		for c := 0; c < cfg.BurstSize; c++ {
			crashTimes = append(crashTimes, t0+time.Duration(c)*50*time.Millisecond)
		}
	} else {
		crashTimes = drawTimes(e.crashRNG, nCrashes, at(phaseChurnStart), churnSpan)
	}

	// Network fault plan.
	partitionDomain := -1
	if e.faultRNG.Float64() < cfg.PartitionRate {
		partitionDomain = e.faultRNG.Intn(e.top.NumTransitDomains())
	}
	spike := cfg.SpikeRate > 0 && e.faultRNG.Float64() < cfg.SpikeRate

	for _, t := range joinTimes {
		e.sim.At(t, func(now time.Duration) { e.doJoin(now, stats) })
	}
	for _, t := range leaveTimes {
		e.sim.At(t, func(now time.Duration) { e.doLeave(now, stats, fail) })
	}
	for _, t := range crashTimes {
		e.sim.At(t, func(now time.Duration) { e.doCrash(now, stats, fail) })
	}

	if spike {
		stats.Spike = true
		e.sim.At(at(phaseFaultStart), func(time.Duration) { e.net.factor = cfg.SpikeFactor })
		e.sim.At(at(phaseFaultEnd), func(time.Duration) { e.net.factor = 1 })
	}
	if partitionDomain >= 0 {
		stats.PartitionDomain = partitionDomain
		e.sim.At(at(phaseFaultStart), func(time.Duration) {
			e.partition = vnet.NewPartition(e.top, partitionDomain)
		})
		e.sim.At(at(phaseFaultEnd), func(time.Duration) { e.partition = nil })
	}

	e.sim.At(at(phaseData), func(now time.Duration) { e.doDataProbe(now, stats, fail) })
	e.sim.At(at(phaseRekey), func(now time.Duration) { e.doRekey(now, stats, fail) })
	e.sim.At(start+L, func(now time.Duration) {
		e.doAudit(now, idx, stats)
		e.rep.Intervals[slot] = *stats
	})
}

// intn is rand.Intn tolerant of n == 1 bounds built from zero ceilings.
func intn(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	return rng.Intn(n)
}

func drawTimes(rng *rand.Rand, n int, start, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = start + time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (e *Engine) doJoin(now time.Duration, stats *IntervalStats) {
	defer e.cfg.Obs.StartSpan("chaos_inject").End()
	if len(e.freeHosts) == 0 {
		return // host pool exhausted; skip silently, counts stay honest
	}
	id, err := e.freeID()
	if err != nil {
		return // ID space exhausted
	}
	rec := overlay.Record{Host: e.popHost(), ID: id, JoinTime: now}
	if err := e.dir.Join(rec); err != nil {
		return
	}
	e.mon.Observe(id)
	delete(e.killed, id.Key()) // reused ID of an evicted crasher starts fresh
	if err := e.mirror.join(rec); err == nil {
		e.joinedSince[id.Key()] = rec
		e.churnSinceAudit[id.Key()] = id
		stats.Joins++
	}
}

func (e *Engine) doLeave(now time.Duration, stats *IntervalStats, fail func(error)) {
	defer e.cfg.Obs.StartSpan("chaos_inject").End()
	live := e.liveMembers()
	if len(live) <= 2 {
		return // keep a quorum so rekeying stays meaningful
	}
	id := live[e.memRNG.Intn(len(live))]
	if err := e.dir.Leave(id); err != nil {
		fail(fmt.Errorf("chaos: leave %v: %w", id, err))
		return
	}
	if err := e.mirror.leave(id); err != nil {
		fail(fmt.Errorf("chaos: mirror leave %v: %w", id, err))
		return
	}
	key := id.Key()
	if e.inTree[key] {
		e.leftSince[key] = id
	}
	delete(e.joinedSince, key)
	e.churnSinceAudit[key] = id
	stats.Leaves++
}

func (e *Engine) doCrash(now time.Duration, stats *IntervalStats, fail func(error)) {
	defer e.cfg.Obs.StartSpan("chaos_inject").End()
	victim, isLeader, ok := e.pickVictim()
	if !ok {
		return
	}
	if err := e.mon.Kill(victim, now); err != nil {
		fail(fmt.Errorf("chaos: kill %v: %w", victim, err))
		return
	}
	e.killed[victim.Key()] = true
	e.crashPending[victim.Key()] = crashInfo{id: victim, at: now}
	e.churnSinceAudit[victim.Key()] = victim
	stats.Crashes++
	if isLeader {
		stats.LeaderKills++
	}
}

// pickVictim selects a crash victim: with LeaderKillRate probability a
// current cluster leader, otherwise a uniformly random live member.
func (e *Engine) pickVictim() (ident.ID, bool, bool) {
	live := e.liveMembers()
	if len(live) <= 2 {
		return ident.ID{}, false, false
	}
	if e.crashRNG.Float64() < e.cfg.LeaderKillRate {
		var leaders []ident.ID
		for _, p := range e.mirror.prefixes() {
			if rec, ok := e.mirror.leader(p); ok && e.alive(rec.ID) {
				leaders = append(leaders, rec.ID)
			}
		}
		if len(leaders) > 0 {
			return leaders[e.crashRNG.Intn(len(leaders))], true, true
		}
	}
	return live[e.crashRNG.Intn(len(live))], false, true
}

// doDataProbe multicasts a data payload (Theorem 1 probe) and snapshots
// who was alive to receive it.
func (e *Engine) doDataProbe(now time.Duration, stats *IntervalStats, fail func(error)) {
	e.dataMembers = e.dataMembers[:0]
	for _, id := range e.liveMembers() {
		e.dataMembers = append(e.dataMembers, memberSnap{id: id, key: id.Key()})
	}
	e.curDataTrace = nil
	if e.traceInterval(stats.Index) {
		e.curDataTrace = e.trec.Begin("data", stats.Index, now, "", nil)
		for _, m := range e.dataMembers {
			e.curDataTrace.Member(m.id)
		}
	}
	res, err := tmesh.Multicast(tmesh.Config[int]{
		Dir:            e.dir,
		SenderIsServer: true,
		Alive:          e.mon.Alive,
		DropHop:        e.dropHop,
		Sim:            e.sim,
		StartAt:        now,
		Obs:            e.cfg.Obs,
		Trace:          e.curDataTrace,
		Arena:          e.dataArena,
	}, 1)
	if err != nil {
		fail(fmt.Errorf("chaos: data multicast: %w", err))
		return
	}
	e.curData = res
}

// doRekey ends the key-management interval: reap evictions, batch the
// churn through the key tree, and distribute the rekey message down the
// degradation ladder.
func (e *Engine) doRekey(now time.Duration, stats *IntervalStats, fail func(error)) {
	e.reapEvictions(fail)
	if _, err := e.mirror.process(); err != nil {
		fail(fmt.Errorf("chaos: mirror process: %w", err))
		return
	}

	joins := make([]ident.ID, 0, len(e.joinedSince))
	for _, rec := range e.joinedSince {
		if _, present := e.dir.Record(rec.ID); present {
			joins = append(joins, rec.ID)
		}
	}
	leaves := make([]ident.ID, 0, len(e.leftSince)+len(e.evictedUnbatch))
	for _, id := range e.leftSince {
		leaves = append(leaves, id)
	}
	for _, id := range e.evictedUnbatch {
		if e.inTree[id.Key()] {
			leaves = append(leaves, id)
		}
	}
	sort.Slice(joins, func(i, j int) bool { return joins[i].Compare(joins[j]) < 0 })
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Compare(leaves[j]) < 0 })

	rekeySpan := e.cfg.Obs.StartSpan("chaos_rekey")
	msg, err := rekeyBatch(e.tree, joins, leaves, e.profLabel)
	rekeySpan.End()
	if err != nil {
		fail(fmt.Errorf("chaos: key tree batch: %w", err))
		return
	}
	for _, id := range joins {
		e.inTree[id.Key()] = true
	}
	for _, id := range leaves {
		delete(e.inTree, id.Key())
	}
	e.joinedSince = make(map[string]overlay.Record)
	e.leftSince = make(map[string]ident.ID)
	e.evictedUnbatch = make(map[string]ident.ID)
	stats.RekeyCost = msg.Cost()

	e.curLadder = nil
	e.curRekeyTrace = nil
	e.rekeyLive = e.rekeyLive[:0]
	if msg.Cost() == 0 {
		return // no churn reached the tree; nothing to distribute
	}
	for _, id := range e.liveMembers() {
		if e.inTree[id.Key()] {
			e.rekeyLive = append(e.rekeyLive, memberSnap{id: id, key: id.Key()})
		}
	}
	if e.traceInterval(stats.Index) {
		e.curRekeyTrace = e.trec.Begin("rekey", stats.Index, now,
			e.cfg.Mode.String(), split.EncIDs(msg.Encryptions))
		for _, m := range e.rekeyLive {
			e.curRekeyTrace.Member(m.id)
		}
	}
	e.rekeyStart = now
	deliverSpan := e.cfg.Obs.StartSpan("chaos_deliver")
	var lr *recovery.LadderResult
	obs.WithStage(e.profLabel, "deliver", func() {
		lr, err = recovery.DistributeLadder(recovery.LadderConfig{
			Dir:          e.dir,
			Sim:          e.sim,
			StartAt:      now,
			Mode:         e.cfg.Mode,
			Pool:         e.pool,
			DropHop:      e.dropHop,
			Alive:        e.mon.Alive,
			Timeout:      e.cfg.Timeout,
			RetryBase:    e.cfg.RetryBase,
			RetryMax:     e.cfg.RetryMax,
			RetryBudget:  e.cfg.RetryBudget,
			DropUnicast:  e.dropUnicast,
			Obs:          e.cfg.Obs,
			ProfileLabel: e.profLabel,
			Trace:        e.curRekeyTrace,
			Arena:        e.rekeyArena,
			SplitArena:   e.splitArena,
		}, msg)
	})
	deliverSpan.End()
	if err != nil {
		fail(fmt.Errorf("chaos: rekey distribution: %w", err))
		return
	}
	e.curLadder = lr
}

// reapEvictions notices users the failure machinery has evicted since
// the last reap: they leave the cluster mirror and queue for the next
// key-tree batch.
func (e *Engine) reapEvictions(fail func(error)) {
	var gone []string
	for key, info := range e.crashPending {
		if _, present := e.dir.Record(info.id); !present {
			gone = append(gone, key)
		}
	}
	sort.Strings(gone)
	for _, key := range gone {
		info := e.crashPending[key]
		if err := e.mirror.leave(info.id); err != nil {
			fail(fmt.Errorf("chaos: mirror evict %v: %w", info.id, err))
			return
		}
		e.evictedUnbatch[key] = info.id
		delete(e.crashPending, key)
	}
}

// reapOrphans force-evicts dead users whose crash is older than one
// full interval: every possible detector either fired or died by then,
// so nobody else will report them (the key server's own rekey-ack
// timeout in a real deployment).
func (e *Engine) reapOrphans(now time.Duration) int {
	cutoff := now - e.cfg.IntervalLength
	var orphans []string
	for key, info := range e.crashPending {
		if info.at <= cutoff {
			orphans = append(orphans, key)
		}
	}
	sort.Strings(orphans)
	n := 0
	for _, key := range orphans {
		if e.mon.EvictIfDead(e.crashPending[key].id) {
			n++
		}
	}
	return n
}

// doAudit closes the interval: reap stragglers, then run every
// registered auditor and record the verdicts.
func (e *Engine) doAudit(now time.Duration, idx int, stats *IntervalStats) {
	auditSpan := e.cfg.Obs.StartSpan("chaos_audit")
	e.rep.OrphanEvicted += e.reapOrphans(now)
	e.reapEvictions(func(error) {})
	stats.Members = e.dir.Size()

	verdicts := make([]auditVerdict, 0, len(e.auditors))
	for _, a := range e.auditors {
		sp := e.cfg.Obs.StartSpan("chaos_audit_" + a.Name)
		err := a.Check(e, idx, stats)
		sp.End()
		v := auditVerdict{Name: a.Name, OK: err == nil}
		if err != nil {
			e.cfg.Obs.Counter("chaos_audit_fail_" + a.Name).Inc()
			v.Violation = err.Error()
			stats.Violations = append(stats.Violations,
				fmt.Sprintf("%s: %v", a.Name, err))
		} else {
			e.cfg.Obs.Counter("chaos_audit_pass_" + a.Name).Inc()
		}
		verdicts = append(verdicts, v)
	}
	auditSpan.End()

	// Emit the interval record while the interval's live state is still
	// around; the fields are all deterministic (see intervalEvent).
	e.emitInterval(stats, verdicts)

	// Close the interval's flight-recorder traces with the survivor set
	// each delivery guarantee applies to — the same sets the delivery
	// and coverage auditors above swept — so the offline trace audit
	// reaches the same verdicts.
	faultFree := stats.PartitionDomain < 0 && e.cfg.HopLoss == 0
	if e.curDataTrace != nil {
		var surv []ident.ID
		for _, m := range e.dataMembers {
			if e.alive(m.id) {
				surv = append(surv, m.id)
			}
		}
		e.curDataTrace.End(surv, faultFree)
		e.curDataTrace = nil
	}
	if e.curRekeyTrace != nil {
		var surv []ident.ID
		for _, m := range e.rekeyLive {
			if !e.alive(m.id) {
				continue
			}
			if _, present := e.dir.Record(m.id); present {
				surv = append(surv, m.id)
			}
		}
		e.curRekeyTrace.End(surv, faultFree)
		e.curRekeyTrace = nil
	}

	// Fold the interval's delivery delays into the soak-wide streaming
	// percentiles. Member order is deterministic (snapshots are in ID
	// order), so the P² marker state — and hence the reported estimates
	// — replays identically for the same seed.
	if e.curData != nil {
		for _, m := range e.dataMembers {
			if st := e.curData.Users[m.key]; st != nil && st.Received > 0 {
				e.dataDelay.Observe(float64(st.Delay) / float64(time.Millisecond))
			}
		}
	}
	var keyLat []float64
	if e.curLadder != nil {
		for _, m := range e.rekeyLive {
			if at, ok := e.curLadder.DeliveredAt[m.key]; ok {
				d := float64(at-e.rekeyStart) / float64(time.Millisecond)
				e.keyDelay.Observe(d)
				keyLat = append(keyLat, d)
			}
		}
	}

	// Close the boundary against the service objectives. Expected is the
	// set of surviving in-tree members the coverage auditor swept (owed
	// the interval's key); Delivered are those the ladder reached. All
	// inputs are deterministic, so the verdict — and the "slo" record
	// emitted right after the interval record — replays byte-identically.
	sb := slo.Boundary{
		Boundary:    stats.Index,
		Members:     stats.Members,
		Escalations: stats.KeyByUnicast + stats.KeyByResync,
		RekeyCost:   stats.RekeyCost,
		LatenciesMS: keyLat,
	}
	if lr := e.curLadder; lr != nil {
		sb.DeadInFlight = len(lr.DeadInFlight)
		for _, m := range e.rekeyLive {
			if !e.alive(m.id) {
				continue
			}
			if _, present := e.dir.Record(m.id); !present {
				continue
			}
			sb.Expected++
			if _, got := lr.DeliveredAt[m.key]; got {
				sb.Delivered++
			}
		}
	}
	e.slo.Observe(sb)

	// Reset per-interval state the auditors consumed.
	e.churnSinceAudit = make(map[string]ident.ID)
	e.curData = nil
	e.curLadder = nil
}

// auditVerdict is one auditor's outcome inside an interval event.
type auditVerdict struct {
	Name      string `json:"name"`
	OK        bool   `json:"ok"`
	Violation string `json:"violation,omitempty"`
}

// intervalEvent is the JSONL record of one audited interval. Every
// field is derived from the deterministic simulation (counts, virtual
// times, audit verdicts) — wall-clock durations stay in the registry,
// so seed-identical soaks emit byte-identical streams.
type intervalEvent struct {
	Kind            string         `json:"kind"` // always "interval"
	Interval        int            `json:"interval"`
	Members         int            `json:"members"`
	Joins           int            `json:"joins"`
	Leaves          int            `json:"leaves"`
	Crashes         int            `json:"crashes"`
	LeaderKills     int            `json:"leader_kills"`
	Burst           bool           `json:"burst,omitempty"`
	PartitionDomain int            `json:"partition_domain"`
	Spike           bool           `json:"spike,omitempty"`
	RekeyCost       int            `json:"rekey_cost"`
	DataDelivered   int            `json:"data_delivered"`
	DataLost        int            `json:"data_lost"`
	KeyByMulticast  int            `json:"key_by_multicast"`
	KeyByUnicast    int            `json:"key_by_unicast"`
	KeyByResync     int            `json:"key_by_resync"`
	UnicastAttempts int            `json:"unicast_attempts"`
	Retries         int            `json:"retries"`
	DeadInFlight    int            `json:"dead_in_flight"`
	MaxBackoffNS    int64          `json:"max_backoff_ns"`
	LadderRung      string         `json:"ladder_rung"` // deepest rung reached
	ForwardedEncs   int            `json:"forwarded_encryptions"`
	Audits          []auditVerdict `json:"audits"`
}

// emitInterval writes one interval record to the configured sink. Call
// it before the per-interval state resets; no-op when Sink is nil.
func (e *Engine) emitInterval(stats *IntervalStats, verdicts []auditVerdict) {
	if e.cfg.Sink == nil {
		return
	}
	ev := intervalEvent{
		Kind:            "interval",
		Interval:        stats.Index,
		Members:         stats.Members,
		Joins:           stats.Joins,
		Leaves:          stats.Leaves,
		Crashes:         stats.Crashes,
		LeaderKills:     stats.LeaderKills,
		Burst:           stats.Burst,
		PartitionDomain: stats.PartitionDomain,
		Spike:           stats.Spike,
		RekeyCost:       stats.RekeyCost,
		DataDelivered:   stats.DataDelivered,
		DataLost:        stats.DataLost,
		KeyByMulticast:  stats.KeyByMulticast,
		KeyByUnicast:    stats.KeyByUnicast,
		KeyByResync:     stats.KeyByResync,
		UnicastAttempts: stats.UnicastAttempts,
		Retries:         stats.Retries,
		MaxBackoffNS:    int64(stats.MaxBackoff),
		LadderRung:      "none",
		Audits:          verdicts,
	}
	switch {
	case stats.KeyByResync > 0:
		ev.LadderRung = "resync"
	case stats.KeyByUnicast > 0:
		ev.LadderRung = "unicast"
	case stats.KeyByMulticast > 0:
		ev.LadderRung = "multicast"
	}
	if lr := e.curLadder; lr != nil {
		ev.DeadInFlight = len(lr.DeadInFlight)
		if lr.Multicast != nil {
			for _, st := range lr.Multicast.Users {
				ev.ForwardedEncs += st.UnitsForwarded
			}
		}
	}
	e.cfg.Sink.Emit(ev)
}
