// The rekey pipeline: the interval path of a Group decomposed into four
// explicit stages, each behind a small interface —
//
//	mark    (structural batch: prune leaves, insert joins, plan updates)
//	regen   (per-subtree key regeneration + encryption wrapping)
//	deliver (split multicast over the T-mesh)
//	apply   (per-user keyring updates from the delivered encryptions)
//
// The chaos soak, the experiment harness, and the session runner all
// drive the same engine through these interfaces instead of private
// Group internals. The two crypto-heavy stages parallelize: regen fans
// out across level-1 ID subtrees (Lemma 3 makes them independent rekey
// units) inside keytree.Regenerate, and apply fans out across delivered
// users; both run on the group's work.Pool. Determinism contract: with a
// fixed seed, every stage's output is byte-identical at pool width 1
// or N.
package core

import (
	"fmt"
	"sort"
	"strings"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/memberstate"
	"tmesh/internal/obs"
	"tmesh/internal/split"
	"tmesh/internal/work"
)

// Marker is the structural stage of a rekey interval.
type Marker interface {
	Mark(joins, leaves []ident.ID) (*keytree.BatchPlan, error)
}

// Regenerator is the key-regeneration stage: it turns a batch plan into
// the interval's rekey message, fanning crypto work out across up to
// `parallelism` workers (a pool set on the tree supersedes the width).
type Regenerator interface {
	Regenerate(plan *keytree.BatchPlan, parallelism int) (*keytree.Message, error)
}

// Rekeyer is the key server's side of the pipeline — mark + regen.
// *keytree.Tree implements it.
type Rekeyer interface {
	Marker
	Regenerator
}

var _ Rekeyer = (*keytree.Tree)(nil)

// Distributor is the delivery stage: it multicasts a rekey message and
// reports who received which encryptions.
type Distributor interface {
	Distribute(msg *keytree.Message) (*split.Report, error)
}

// Applier is the final stage: it updates member keyrings from the
// collected deliveries of one interval.
type Applier interface {
	Apply(interval uint64, deliveries []split.Delivery) error
}

// ApplyError aggregates every member keyring failure of one apply
// stage, ordered by user ID, so a multi-user failure reports the same
// text regardless of worker scheduling.
type ApplyError struct {
	// Users and Errs are parallel slices sorted by user-ID key.
	Users []ident.ID
	Errs  []error
}

// Error implements error.
func (e *ApplyError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %d user(s) failed to apply rekey:", len(e.Users))
	for i, u := range e.Users {
		fmt.Fprintf(&b, " [%v: %v]", u, e.Errs[i])
	}
	return b.String()
}

// Unwrap exposes the first (lowest user ID) failure for errors.Is/As.
func (e *ApplyError) Unwrap() error {
	if len(e.Errs) == 0 {
		return nil
	}
	return e.Errs[0]
}

// storeApplier applies deliveries to keyrings held in a sharded member
// store, fanning out across users on a work.Pool. Users without a
// keyring (non-leaders in cluster mode, or plain-crypto runs) are
// skipped.
type storeApplier struct {
	store *memberstate.Store
	// pool runs the per-user fan-out; nil applies inline.
	pool *work.Pool
	// obs, when non-nil, counts applied users and skipped deliveries;
	// workers update the hoisted counters lock-free.
	obs *obs.Registry
	// label, when non-empty, wraps each worker's slot in the pprof
	// label set {group=label, stage=apply}, so apply-stage CPU on a
	// shared pool's helpers attributes to the tenant.
	label string
}

// NewApplier returns the pipeline's apply stage over a member store,
// fanned out on the pool (nil applies inline), usable standalone
// (benchmarks, alternative drivers) exactly as the Group uses it
// internally.
func NewApplier(store *memberstate.Store, pool *work.Pool) Applier {
	return &storeApplier{store: store, pool: pool}
}

// Apply implements Applier. Deliveries are first grouped per user in
// arrival order — so a user that received several split messages applies
// them in the order the transport delivered them, under exactly one
// worker — then users fan out across the pool. All failures are
// collected and reported sorted by user ID (as *ApplyError).
func (a *storeApplier) Apply(interval uint64, deliveries []split.Delivery) error {
	order := make([]ident.ID, 0, len(deliveries))
	byUser := make(map[string][]split.Delivery, len(deliveries))
	for _, d := range deliveries {
		key := d.To.Key()
		if _, seen := byUser[key]; !seen {
			order = append(order, d.To)
		}
		byUser[key] = append(byUser[key], d)
	}

	appliedC := a.obs.Counter("core_apply_users")
	skippedC := a.obs.Counter("core_apply_skipped_users")
	errs := make([]error, len(order))
	applyUser := func(i int) {
		id := order[i]
		kr := a.store.Keyring(id)
		if kr == nil {
			skippedC.Inc()
			return
		}
		appliedC.Inc()
		for _, d := range byUser[id.Key()] {
			sub := &keytree.Message{Interval: interval, Encryptions: d.Encryptions}
			if _, err := kr.Apply(sub); err != nil {
				errs[i] = err
				return
			}
		}
		if gk, ok := kr.GroupKey(); ok {
			a.store.SetGroupKey(id, gk)
		}
	}

	a.pool.Run(len(order), func(_ int, next func() (int, bool)) {
		obs.WithStage(a.label, "apply", func() {
			for {
				i, ok := next()
				if !ok {
					return
				}
				applyUser(i)
			}
		})
	})

	var failed []int
	for i, err := range errs {
		if err != nil {
			failed = append(failed, i)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	sort.Slice(failed, func(x, y int) bool {
		return order[failed[x]].Key() < order[failed[y]].Key()
	})
	agg := &ApplyError{}
	for _, i := range failed {
		agg.Users = append(agg.Users, order[i])
		agg.Errs = append(agg.Errs, errs[i])
	}
	return agg
}
