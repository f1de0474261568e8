// Package work is the tree's one CPU fan-out: every stage that spreads
// independent units over goroutines — key regeneration across level-1
// ID subtrees, keyring apply across members, split-index compilation,
// the experiment runners — goes through Pool.Run. A grouphost injects
// one shared pool into every core.Group it multiplexes, so G groups
// rekeying over one topology draw on one set of W workers instead of
// G×W.
//
// The pool preserves the repo's determinism contract: callers hand Run
// a unit count and a worker body that claims unit indices from an
// atomic cursor and writes only to disjoint, index-addressed slots.
// Which goroutine executes which unit varies run to run; the units
// executed and the slots written do not, so same-seed runs stay
// byte-identical at any pool size.
//
// Deadlock freedom: a pool of width W holds W−1 helper tokens. Each Run
// starts one short-lived helper goroutine per token it can claim
// without blocking, and the calling goroutine always participates. If
// every token is taken (including the nested case of a Run issued from
// inside a worker body), the call simply degrades to inline execution —
// it never waits on pool capacity. Helpers finish before Run returns, so
// a pool owns no goroutines between calls and needs no lifecycle.
package work

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the goroutines that any number of concurrent Run calls
// occupy at once. A nil *Pool is valid and runs everything inline
// (Workers() == 1), mirroring the nil-off-switch convention of
// internal/obs.
type Pool struct {
	workers int
	helpers chan struct{} // one token per helper goroutine in flight
	closed  atomic.Bool
}

// NewPool creates a pool with the given worker width. workers <= 0
// selects GOMAXPROCS. Width 1 means "no extra goroutines": Run
// executes inline on the caller.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, helpers: make(chan struct{}, workers-1)}
}

// Workers returns the pool width: the maximum number of goroutines
// (helpers plus the caller) one Run call can occupy. 1 on a nil pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close makes every later Run execute inline. Runs already in progress
// finish normally. Close is idempotent.
func (p *Pool) Close() {
	if p != nil {
		p.closed.Store(true)
	}
}

// Run executes units work items. worker(slot, next) is invoked on up
// to Workers() goroutines; each invocation must loop on next(), which
// hands out unit indices [0, units) exactly once across all
// invocations, and return when next reports done. slot is a dense
// per-invocation index in [0, Workers()) for per-worker scratch; slot 0
// is always the caller's.
//
// Helpers are started only for tokens claimed without blocking, so Run
// never waits on pool capacity: with all tokens taken — including a
// nested Run from inside a worker body — it degrades to inline
// execution on the caller alone. Every helper has returned its token
// by the time Run returns.
func (p *Pool) Run(units int, worker func(slot int, next func() (int, bool))) {
	if units <= 0 {
		return
	}
	width := min(p.Workers(), units)
	if width <= 1 || p.closed.Load() {
		runInline(units, worker)
		return
	}

	var cursor atomic.Int64
	next := func() (int, bool) {
		i := cursor.Add(1) - 1
		return int(i), i < int64(units)
	}

	var wg sync.WaitGroup
	for slot := 1; slot < width && p.claim(); slot++ {
		wg.Add(1)
		go func(slot int) {
			defer func() {
				<-p.helpers
				wg.Done()
			}()
			worker(slot, next)
		}(slot)
	}
	worker(0, next)
	wg.Wait()
}

// claim takes a helper token if one is free, without blocking.
func (p *Pool) claim() bool {
	select {
	case p.helpers <- struct{}{}:
		return true
	default:
		return false
	}
}

func runInline(units int, worker func(slot int, next func() (int, bool))) {
	i := 0
	worker(0, func() (int, bool) {
		n := i
		i++
		return n, n < units
	})
}
