// Package tmesh's root benchmark harness: one benchmark per evaluation
// figure (scaled down so `go test -bench=.` completes in minutes; the
// cmd/rekeysim tool runs the full paper-scale versions), plus
// micro-benchmarks of the hot paths.
package tmesh

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/core"
	"tmesh/internal/exp"
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/lkh"
	"tmesh/internal/memberstate"
	"tmesh/internal/nice"
	"tmesh/internal/overlay"
	"tmesh/internal/split"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
	"tmesh/internal/work"
)

// benchAssign is a reduced ID space that keeps benchmark setup fast while
// preserving the protocol structure.
func benchAssign() assign.Config {
	return assign.Config{
		Params:        ident.Params{Digits: 4, Base: 64},
		Thresholds:    []time.Duration{150 * time.Millisecond, 30 * time.Millisecond, 9 * time.Millisecond},
		Percentile:    90,
		CollectTarget: 8,
	}
}

func benchLatency(b *testing.B, cfg exp.LatencyConfig) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := exp.RunLatency(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06RekeyLatencyPlanetLab(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.PlanetLab, Joins: 64, Runs: 1, Points: 10, Assign: benchAssign(),
	})
}

func BenchmarkFig07RekeyLatencyGTITM256(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.GTITM, Joins: 96, Runs: 1, Points: 10, Assign: benchAssign(),
	})
}

func BenchmarkFig08RekeyLatencyGTITM1024(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.GTITM, Joins: 192, Runs: 1, Points: 10, Assign: benchAssign(),
	})
}

// --- Sequential-vs-parallel pairs for the run-level fan-out ---
//
// Compare with `go test -bench 'Fig0[68].*Runs' -benchtime=1x`. The
// parallel variants first assert that a reduced-size parallel execution
// reproduces the sequential series exactly, then time the full
// configuration. Speedup requires GOMAXPROCS > 1; at GOMAXPROCS = 1 the
// pairs should time within noise of each other.

func fig06RunsConfig(parallel int) exp.LatencyConfig {
	return exp.LatencyConfig{
		Topology: exp.PlanetLab, Joins: 48, Runs: 100, Points: 10,
		Assign: benchAssign(), Parallel: parallel,
	}
}

func fig08RunsConfig(parallel int) exp.LatencyConfig {
	return exp.LatencyConfig{
		Topology: exp.GTITM, Joins: 96, Runs: 8, Points: 10,
		Assign: benchAssign(), Parallel: parallel,
	}
}

// assertParallelMatchesSequential verifies the determinism guarantee on
// a reduced run count before the timed section starts.
func assertParallelMatchesSequential(b *testing.B, cfg exp.LatencyConfig) {
	b.Helper()
	seq := cfg
	seq.Runs = 8
	seq.Parallel = 1
	seq.Seed = 1
	par := seq
	par.Parallel = runtime.GOMAXPROCS(0)
	want, err := exp.RunLatency(seq)
	if err != nil {
		b.Fatal(err)
	}
	got, err := exp.RunLatency(par)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(want.Series, got.Series) {
		b.Fatal("parallel series differ from sequential output")
	}
}

func BenchmarkFig06Sequential100Runs(b *testing.B) {
	benchLatency(b, fig06RunsConfig(1))
}

func BenchmarkFig06Parallel100Runs(b *testing.B) {
	cfg := fig06RunsConfig(runtime.GOMAXPROCS(0))
	assertParallelMatchesSequential(b, cfg)
	b.ResetTimer()
	benchLatency(b, cfg)
}

func BenchmarkFig08Sequential8Runs(b *testing.B) {
	benchLatency(b, fig08RunsConfig(1))
}

func BenchmarkFig08Parallel8Runs(b *testing.B) {
	cfg := fig08RunsConfig(runtime.GOMAXPROCS(0))
	assertParallelMatchesSequential(b, cfg)
	b.ResetTimer()
	benchLatency(b, cfg)
}

func BenchmarkFig09DataLatencyPlanetLab(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.PlanetLab, Joins: 64, Runs: 1, Points: 10, Assign: benchAssign(),
		DataTransport: true,
	})
}

func BenchmarkFig10DataLatencyGTITM256(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.GTITM, Joins: 96, Runs: 1, Points: 10, Assign: benchAssign(),
		DataTransport: true,
	})
}

func BenchmarkFig11DataLatencyGTITM1024(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.GTITM, Joins: 192, Runs: 1, Points: 10, Assign: benchAssign(),
		DataTransport: true,
	})
}

func BenchmarkFig12RekeyCostGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunRekeyCost(exp.RekeyCostConfig{
			N:       128,
			JValues: []int{0, 32, 64},
			LValues: []int{0, 32, 64},
			Runs:    1,
			Assign:  benchAssign(),
			Seed:    int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13BandwidthSevenProtocols(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunBandwidth(exp.BandwidthConfig{
			N: 128, ChurnJoins: 32, ChurnLeaves: 32,
			Assign: benchAssign(), Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14ThresholdSweep(b *testing.B) {
	variants := []exp.ThresholdVariant{
		{Name: "A", Digits: 4, Base: 64, Thresholds: []time.Duration{150e6, 30e6, 9e6}},
		{Name: "B", Digits: 3, Base: 64, Thresholds: []time.Duration{150e6, 9e6}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunThresholdSweep(48, 1, int64(i+1), variants); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinCostSec31(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunJoinCost(exp.JoinCostConfig{
			GroupSizes: []int{32, 128},
			Samples:    4,
			Assign:     benchAssign(),
			Seed:       int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationScrambledIDs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunIDAblation(exp.AblationConfig{
			N: 96, ChurnJoins: 16, ChurnLeaves: 16,
			Assign: benchAssign(), Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketSplitSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunPacketSweep(exp.AblationConfig{
			N: 96, ChurnLeaves: 16, Assign: benchAssign(), Seed: int64(i + 1),
		}, []int{5, 25})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLossRecoverySweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunLossSweep(exp.AblationConfig{
			N: 96, ChurnLeaves: 12, Assign: benchAssign(), Seed: int64(i + 1),
		}, []float64{0.05, 0.2})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGNPComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunGNPComparison(64, int64(i+1), benchAssign()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCongestionThreeScenarios(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunCongestion(exp.CongestionConfig{
			N: 96, ChurnLeaves: 24, Assign: benchAssign(), Seed: int64(i + 1),
			UplinkBytesPerSecond: 40000,
			DataFrameUnits:       2,
			Frames:               10,
			FrameSpacing:         200 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the building blocks ---

// benchGroup builds a reusable directory of n users for transport
// benchmarks.
func benchGroup(b *testing.B, n int) (*overlay.Directory, []overlay.Record) {
	b.Helper()
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), n+1, 1)
	if err != nil {
		b.Fatal(err)
	}
	acfg := benchAssign()
	dir, err := overlay.NewDirectory(acfg.Params, 4, net, 0)
	if err != nil {
		b.Fatal(err)
	}
	assigner, err := assign.New(acfg, dir, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]overlay.Record, 0, n)
	for h := 1; h <= n; h++ {
		id, _, err := assigner.AssignID(vnet.HostID(h))
		if err != nil {
			b.Fatal(err)
		}
		rec := overlay.Record{Host: vnet.HostID(h), ID: id}
		if err := dir.Join(rec); err != nil {
			b.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return dir, recs
}

func BenchmarkTmeshMulticast256(b *testing.B) {
	dir, _ := benchGroup(b, 256)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := tmesh.Multicast(tmesh.Config[int]{Dir: dir, SenderIsServer: true}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Users) != 256 {
			b.Fatalf("delivered to %d users", len(res.Users))
		}
	}
}

func BenchmarkRekeySplitting256(b *testing.B) {
	dir, recs := benchGroup(b, 256)
	tree, err := keytree.New(benchAssign().Params, []byte("bench"), keytree.Opts{})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]ident.ID, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	if _, err := tree.Batch(ids[32:], nil); err != nil {
		b.Fatal(err)
	}
	msg, err := tree.Batch(ids[:32], nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := split.Rekey(dir, msg, split.Options{Mode: split.PerEncryption}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModifiedKeyTreeBatch(b *testing.B) {
	params := ident.Params{Digits: 5, Base: 256}
	rng := rand.New(rand.NewSource(1))
	base := make([]ident.ID, 0, 1024)
	used := make(map[int]bool)
	for len(base) < 1024 {
		v := rng.Intn(1 << 20)
		if used[v] {
			continue
		}
		used[v] = true
		id, err := ident.FromInt(params, v)
		if err != nil {
			b.Fatal(err)
		}
		base = append(base, id)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree, err := keytree.New(params, []byte("bench"), keytree.Opts{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tree.Batch(base[64:], nil); err != nil {
			b.Fatal(err)
		}
		msg, err := tree.Batch(base[:64], nil)
		if err != nil {
			b.Fatal(err)
		}
		if msg.Cost() == 0 {
			b.Fatal("empty rekey message")
		}
	}
}

func BenchmarkOriginalKeyTreeBatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree, users, err := lkh.NewFullBalanced(4, 1024)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := tree.Batch(64, users[:64]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAESKeyWrap(b *testing.B) {
	kek := keycrypt.DeriveKey([]byte("bench"), "kek")
	nk := keycrypt.DeriveKey([]byte("bench"), "new")
	pfx, err := ident.PrefixOf(ident.DefaultParams, []ident.Digit{1, 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := keycrypt.Wrap(kek, pfx, nk, ident.EmptyPrefix, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := keycrypt.Unwrap(kek, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNICEJoin256(b *testing.B) {
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), 257, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := nice.New(net, nice.DefaultK)
		if err != nil {
			b.Fatal(err)
		}
		for h := 1; h <= 256; h++ {
			if err := p.Join(vnet.HostID(h)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Rekey pipeline Seq/Par pairs (N=4096 members, RealCrypto) ---
//
// These drive the two crypto-heavy stages of the staged rekey pipeline
// (internal/core/pipeline.go) at paper scale: key regeneration fanned
// out across level-1 ID subtrees, and keyring apply fanned out across
// delivered users. Compare Seq vs Par with
//
//	make bench-rekey
//
// to see the interval-throughput speedup on a multi-core runner. As
// with the Fig06/Fig08 pairs above, speedup requires GOMAXPROCS > 1;
// at GOMAXPROCS = 1 the pairs should time within noise of each other.
// Byte-identical seq/par output is pinned by the unit tests
// (keytree.TestRegenerateParallelByteIdentical and
// core.TestPipelineSeqParEquivalence), so the benchmarks only time.

const (
	benchPipelineN     = 4096
	benchPipelineChurn = 64
)

// benchPipelineIDs draws n distinct IDs deterministically, spread over
// the whole ID space so every level-1 subtree carries members.
func benchPipelineIDs(b *testing.B, params ident.Params, n int) []ident.ID {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	used := make(map[string]bool, n)
	ids := make([]ident.ID, 0, n)
	for len(ids) < n {
		id, err := ident.FromInt(params, rng.Intn(params.Capacity()))
		if err != nil {
			b.Fatal(err)
		}
		if used[id.Key()] {
			continue
		}
		used[id.Key()] = true
		ids = append(ids, id)
	}
	return ids
}

// benchProcessInterval measures the key server's interval path — mark
// plus regenerate — on a 4096-member tree with real AES-GCM wrapping.
// Each iteration runs one leave interval and one join interval of 64
// users each (net-zero churn keeps the tree at steady state), which is
// the ProcessInterval workload minus the overlay transport.
func benchProcessInterval(b *testing.B, parallelism int) {
	params := benchAssign().Params
	ids := benchPipelineIDs(b, params, benchPipelineN)
	tree, err := keytree.New(params, []byte("bench-pipeline"), keytree.Opts{RealCrypto: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tree.Batch(ids, nil); err != nil {
		b.Fatal(err)
	}
	churn := ids[:benchPipelineChurn]
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, batch := range [2][2][]ident.ID{{nil, churn}, {churn, nil}} {
			plan, err := tree.Mark(batch[0], batch[1])
			if err != nil {
				b.Fatal(err)
			}
			msg, err := tree.Regenerate(plan, parallelism)
			if err != nil {
				b.Fatal(err)
			}
			if msg.Cost() == 0 {
				b.Fatal("empty rekey message")
			}
		}
	}
}

func BenchmarkProcessIntervalSeq(b *testing.B) { benchProcessInterval(b, 1) }

func BenchmarkProcessIntervalPar(b *testing.B) {
	benchProcessInterval(b, runtime.GOMAXPROCS(0))
}

// benchDistributeWorld builds a 4096-member directory (IDs installed
// directly, no assignment protocol — that is benchmarked elsewhere), a
// RealCrypto key tree, and a member store holding every live user's
// keyring, then produces one leave-interval rekey message to distribute.
func benchDistributeWorld(b *testing.B) (*overlay.Directory, *keytree.Message, *memberstate.Store) {
	b.Helper()
	params := benchAssign().Params
	ids := benchPipelineIDs(b, params, benchPipelineN)
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), benchPipelineN+1, 1)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := overlay.NewDirectory(params, 4, net, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i, id := range ids {
		if err := dir.Join(overlay.Record{Host: vnet.HostID(i + 1), ID: id}); err != nil {
			b.Fatal(err)
		}
	}
	tree, err := keytree.New(params, []byte("bench-pipeline"), keytree.Opts{RealCrypto: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tree.Batch(ids, nil); err != nil {
		b.Fatal(err)
	}
	leavers := ids[:benchPipelineChurn]
	for _, id := range leavers {
		if err := dir.Leave(id); err != nil {
			b.Fatal(err)
		}
	}
	msg, err := tree.Batch(nil, leavers)
	if err != nil {
		b.Fatal(err)
	}
	store := memberstate.NewStore()
	if err := store.InstallKeyrings(tree, ids[benchPipelineChurn:]); err != nil {
		b.Fatal(err)
	}
	return dir, msg, store
}

// benchDistributeRekey measures the delivery + apply stages: split
// multicast of one rekey interval over the 4096-member T-mesh, then
// every delivered user unwrapping its encryptions into its keyring.
// Re-applying the same interval is idempotent (same keys, same
// versions), so iterations are identical work.
func benchDistributeRekey(b *testing.B, parallelism int) {
	dir, msg, store := benchDistributeWorld(b)
	pool := work.NewPool(parallelism)
	applier := core.NewApplier(store, pool)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := split.Rekey(dir, msg, split.Options{
			Mode:    split.PerEncryption,
			Collect: true,
			Pool:    pool,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Deliveries) == 0 {
			b.Fatal("no deliveries collected")
		}
		if err := applier.Apply(msg.Interval, rep.Deliveries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributeRekeySeq(b *testing.B) { benchDistributeRekey(b, 1) }

func BenchmarkDistributeRekeyPar(b *testing.B) {
	benchDistributeRekey(b, runtime.GOMAXPROCS(0))
}

// benchSink keeps the hop-filter results live so the compiler cannot
// elide the lookup under test.
var benchSink int

// benchHopSubtrees collects every proper subtree of the 4096-member
// bench directory — the set of prefixes a rekey multicast actually
// splits against hop by hop.
func benchHopSubtrees(b *testing.B, dir *overlay.Directory) []ident.Prefix {
	b.Helper()
	var subtrees []ident.Prefix
	dir.Tree().Walk(func(p ident.Prefix, _ int) bool {
		if p.Len() > 0 {
			subtrees = append(subtrees, p)
		}
		return true
	})
	if len(subtrees) == 0 {
		b.Fatal("no subtrees")
	}
	return subtrees
}

// BenchmarkHopFilterLegacy is the pre-compilation per-hop cost: one
// RelevantTo scan of the full rekey message per forwarding hop.
func BenchmarkHopFilterLegacy(b *testing.B) {
	dir, msg, _ := benchDistributeWorld(b)
	subtrees := benchHopSubtrees(b, dir)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += len(split.Filter(msg.Encryptions, subtrees[i%len(subtrees)]))
	}
}

// BenchmarkHopFilterCompiled is the steady-state per-hop cost after the
// split decisions are compiled once per rekey: a map lookup returning a
// shared slice. Must report 0 allocs/op — `make bench-hot` fails
// otherwise.
func BenchmarkHopFilterCompiled(b *testing.B) {
	dir, msg, _ := benchDistributeWorld(b)
	subtrees := benchHopSubtrees(b, dir)
	ix := split.NewIndex(dir.Tree(), msg.Encryptions, work.NewPool(0), nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += len(ix.Split(msg.Encryptions, subtrees[i%len(subtrees)]))
	}
}

// BenchmarkSplitIndexBuild is the one-time compilation cost the rekey
// pays up front to make every hop allocation-free.
func BenchmarkSplitIndexBuild(b *testing.B) {
	dir, msg, _ := benchDistributeWorld(b)
	tree := dir.Tree()
	pool := work.NewPool(0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix := split.NewIndex(tree, msg.Encryptions, pool, nil)
		benchSink += len(ix.Split(msg.Encryptions, ident.EmptyPrefix))
	}
}

func BenchmarkGTITMDijkstra(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), 32, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		// Force shortest-path computation from every host's gateway.
		for h := 1; h < 32; h++ {
			_ = net.GatewayRTT(0, vnet.HostID(h))
		}
	}
}
