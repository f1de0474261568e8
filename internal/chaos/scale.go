package chaos

// Scale soak: a churn loop over the key-management core alone — key
// tree, rank tables, member keyrings — at membership sizes the full
// network soak cannot reach (the virtual topology and per-hop event
// simulation stop being the point at a million members; the flat state
// layout is). Each interval leaves and rejoins a slice of the group,
// batches the churn through Mark/Regenerate, and applies the rekey
// message to every surviving member's keyring through a per-interval
// encryption index, so the apply side costs O(members × depth) lookups
// instead of O(members × message cost) scans.
//
// Everything observed into the report is a pure function of the config
// (virtual structure, counts, streaming percentiles fed in member
// order), so two runs with the same config produce byte-identical
// String() output — the replay test pins this, which is what makes a
// million-member soak diffable across commits.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/memberstate"
	"tmesh/internal/metrics"
	"tmesh/internal/work"
)

// ScaleConfig parameterises one scale soak.
type ScaleConfig struct {
	// Params is the ID space; Capacity() must cover N plus one
	// interval's worth of joins (leaves free their IDs only for later
	// intervals).
	Params ident.Params
	// N is the steady-state membership, built up in one initial batch.
	N int
	// Intervals is the number of churn intervals after the build-up.
	Intervals int
	// Churn is how many members leave — and how many join to replace
	// them — per interval. Joins prefer recycled IDs from earlier
	// leaves, so ID reuse with epoch bumps is exercised continuously.
	Churn int
	// Seed drives every random draw.
	Seed int64
	// Parallelism is the width of the work.Pool the regenerate and
	// apply stages run on (values < 1 mean 1). The report is identical
	// at any setting.
	Parallelism int
	// RealCrypto wraps keys with real AES-GCM and maintains a keyring
	// per member, applying every rekey message end to end. False
	// exercises the server-side tree only.
	RealCrypto bool
	// Verify spot-checks this many member keyrings against the server
	// tree each interval (0 disables; capped at the group size;
	// RealCrypto only). Mismatches land in the report as violations.
	Verify int
	// Out, when non-nil, receives one progress line per interval
	// (including live heap readings, which deliberately stay out of
	// the deterministic report).
	Out io.Writer
}

// DefaultScaleConfig returns a scale soak sized for n members: base-32
// IDs with just enough digits to hold n plus churn headroom, 1% churn
// per interval, real crypto, and keyring spot checks.
func DefaultScaleConfig(n int) ScaleConfig {
	churn := n / 100
	if churn < 1 {
		churn = 1
	}
	params := ident.Params{Digits: 1, Base: 32}
	for cap := 32; cap < n+churn; cap *= 32 {
		params.Digits++
	}
	return ScaleConfig{
		Params:      params,
		N:           n,
		Intervals:   8,
		Churn:       churn,
		Seed:        1,
		Parallelism: runtime.GOMAXPROCS(0),
		RealCrypto:  true,
		Verify:      256,
	}
}

func (c *ScaleConfig) validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("chaos: scale: %w", err)
	}
	switch {
	case c.N < 1:
		return fmt.Errorf("chaos: scale: N must be >= 1, got %d", c.N)
	case c.Intervals < 0:
		return fmt.Errorf("chaos: scale: Intervals must be >= 0, got %d", c.Intervals)
	case c.Churn < 0 || c.Churn > c.N:
		return fmt.Errorf("chaos: scale: Churn must be in [0, N], got %d", c.Churn)
	case c.Params.Capacity() < c.N+c.Churn:
		return fmt.Errorf("chaos: scale: ID space %dx%d holds %d users, need %d members + %d churn headroom",
			c.Params.Digits, c.Params.Base, c.Params.Capacity(), c.N, c.Churn)
	}
	return nil
}

// ScaleReport is the outcome of one scale soak. String() is a pure
// function of the config: two same-config runs render byte-identically.
type ScaleReport struct {
	Seed                int64
	Params              ident.Params
	N, Intervals, Churn int
	RealCrypto          bool

	FinalMembers int
	// RankWidth is the final dense-rank width of the key tree — the
	// high-water member count, never shrinking under churn. Steady
	// membership must keep it within one churn batch of N.
	RankWidth int

	SetupCost   int   // encryptions in the build-up rekey message
	TotalCost   int64 // encryptions across all churn intervals
	MaxCost     int
	KeysUpdated int64 // keys installed across all member keyrings

	// CostP50/CostP95 are streaming (P²) percentiles of the
	// per-interval rekey cost.
	CostP50, CostP95 float64

	// Violations holds keyring spot-check failures, at most one line
	// per interval.
	Violations []string

	// HeapAllocEnd and BytesPerMember are live-heap observability from
	// the final interval. They are machine- and GC-timing-dependent,
	// so String() excludes them; BENCH_memory.json carries the pinned
	// numbers instead.
	HeapAllocEnd   uint64
	BytesPerMember float64
}

// String renders the canonical (deterministic) scale soak report.
func (r *ScaleReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scale soak seed=%d params=%dx%d n=%d intervals=%d churn=%d realcrypto=%v\n",
		r.Seed, r.Params.Digits, r.Params.Base, r.N, r.Intervals, r.Churn, r.RealCrypto)
	fmt.Fprintf(&b, "cost: setup=%d total=%d max=%d p50=%.1f p95=%.1f keys_updated=%d\n",
		r.SetupCost, r.TotalCost, r.MaxCost, r.CostP50, r.CostP95, r.KeysUpdated)
	fmt.Fprintf(&b, "final: members=%d rank_width=%d violations=%d\n",
		r.FinalMembers, r.RankWidth, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	return b.String()
}

// scaleWorld is the live state of a scale soak: the server tree, the
// member keyrings, the reusable applier, and the churn bookkeeping. The
// soak and the memory benchmarks share it so they exercise the same
// interval loop.
type scaleWorld struct {
	cfg       ScaleConfig
	tree      *keytree.Tree
	store     *memberstate.Store // nil without RealCrypto
	ap        *memberstate.Applier
	rng       *rand.Rand
	active    []ident.ID
	free      []ident.ID // IDs recycled by earlier leaves, reused LIFO
	nextFresh int        // first never-used ID
	setupCost int
}

// newScaleWorld validates the config and runs the build-up: the whole
// group joins in one batch — the million-member Mark/Regenerate the
// flat layout exists for — and (with RealCrypto) every member gets its
// join-time keyring.
func newScaleWorld(cfg ScaleConfig) (*scaleWorld, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pool := work.NewPool(max(cfg.Parallelism, 1))
	tree, err := keytree.New(cfg.Params, seedBytes(cfg.Seed), keytree.Opts{
		RealCrypto:   cfg.RealCrypto,
		CapacityHint: cfg.N,
		Pool:         pool,
	})
	if err != nil {
		return nil, err
	}
	w := &scaleWorld{
		cfg: cfg, tree: tree,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x7363616c)), // "scal"
		active:    make([]ident.ID, cfg.N),
		nextFresh: cfg.N,
	}
	for i := range w.active {
		id, err := ident.FromInt(cfg.Params, i)
		if err != nil {
			return nil, err
		}
		w.active[i] = id
	}
	plan, err := tree.Mark(w.active, nil)
	if err != nil {
		return nil, err
	}
	msg, err := tree.Regenerate(plan, 1) // the pool in Opts supersedes the width
	if err != nil {
		return nil, err
	}
	w.setupCost = msg.Cost()
	if cfg.RealCrypto {
		w.store = memberstate.NewStoreSized(cfg.N + cfg.Churn)
		if err := w.store.InstallKeyrings(tree, w.active); err != nil {
			return nil, err
		}
		w.ap = memberstate.NewApplier(w.store, pool, "")
	}
	return w, nil
}

// step runs one churn interval: draw leave victims and replacement
// joins, batch them through the tree, apply the rekey message to every
// survivor, and unicast path keys to the joiners. It returns the
// interval's rekey cost and the number of keys installed.
func (w *scaleWorld) step() (cost int, updated int64, err error) {
	// Draw leave victims by swap-remove, keeping `active` dense.
	leaves := make([]ident.ID, 0, w.cfg.Churn)
	for len(leaves) < w.cfg.Churn {
		i := w.rng.Intn(len(w.active))
		leaves = append(leaves, w.active[i])
		w.active[i] = w.active[len(w.active)-1]
		w.active = w.active[:len(w.active)-1]
	}
	// Replacement joins: recycled IDs first (epoch-bump rejoins), then
	// fresh ones.
	joins := make([]ident.ID, 0, w.cfg.Churn)
	for len(joins) < w.cfg.Churn {
		if n := len(w.free); n > 0 {
			joins = append(joins, w.free[n-1])
			w.free = w.free[:n-1]
			continue
		}
		id, ferr := ident.FromInt(w.cfg.Params, w.nextFresh)
		if ferr != nil {
			return 0, 0, fmt.Errorf("chaos: scale: ID space exhausted: %w", ferr)
		}
		w.nextFresh++
		joins = append(joins, id)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Compare(leaves[j]) < 0 })
	sort.Slice(joins, func(i, j int) bool { return joins[i].Compare(joins[j]) < 0 })

	if w.store != nil {
		for _, id := range leaves {
			w.store.Remove(id)
		}
	}
	plan, err := w.tree.Mark(joins, leaves)
	if err != nil {
		return 0, 0, err
	}
	msg, err := w.tree.Regenerate(plan, 1)
	if err != nil {
		return 0, 0, err
	}
	if w.store != nil {
		// Survivors apply the multicast message; joiners get their
		// path keys by unicast, as at build-up.
		if updated, err = w.ap.Apply(msg, w.active); err != nil {
			return 0, 0, err
		}
		if err := w.store.InstallKeyrings(w.tree, joins); err != nil {
			return 0, 0, err
		}
	}
	w.active = append(w.active, joins...)
	w.free = append(w.free, leaves...)
	return msg.Cost(), updated, nil
}

// RunScaleSoak executes one scale soak.
func RunScaleSoak(cfg ScaleConfig) (*ScaleReport, error) {
	w, err := newScaleWorld(cfg)
	if err != nil {
		return nil, err
	}
	rep := &ScaleReport{
		Seed: cfg.Seed, Params: cfg.Params,
		N: cfg.N, Intervals: cfg.Intervals, Churn: cfg.Churn,
		RealCrypto: cfg.RealCrypto,
		SetupCost:  w.setupCost,
	}
	costQ50 := metrics.NewStreamingQuantile(0.5)
	costQ95 := metrics.NewStreamingQuantile(0.95)

	for iv := 1; iv <= cfg.Intervals; iv++ {
		cost, updated, err := w.step()
		if err != nil {
			return nil, fmt.Errorf("chaos: scale: interval %d: %w", iv, err)
		}
		rep.TotalCost += int64(cost)
		if cost > rep.MaxCost {
			rep.MaxCost = cost
		}
		costQ50.Observe(float64(cost))
		costQ95.Observe(float64(cost))
		rep.KeysUpdated += updated

		if w.store != nil && cfg.Verify > 0 {
			if v := w.store.VerifyKeyrings(w.tree, w.active, cfg.Verify); v != "" {
				rep.Violations = append(rep.Violations, fmt.Sprintf("interval %d: %s", iv, v))
			}
		}
		if cfg.Out != nil {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			fmt.Fprintf(cfg.Out, "interval %d/%d: members=%d cost=%d applied=%d heap=%dMB\n",
				iv, cfg.Intervals, len(w.active), cost, updated, ms.HeapAlloc>>20)
		}
	}

	rep.FinalMembers = len(w.active)
	rep.RankWidth = w.tree.Ranks().Width()
	rep.CostP50 = costQ50.Value()
	rep.CostP95 = costQ95.Value()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeapAllocEnd = ms.HeapAlloc
	rep.BytesPerMember = float64(ms.HeapAlloc) / float64(cfg.N)
	return rep, nil
}
