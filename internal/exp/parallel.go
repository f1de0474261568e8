package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tmesh/internal/work"
)

// Progress receives one report per completed simulation unit (a run,
// protocol, scenario, ...): its index and wall-clock duration. Runners
// serialise the calls, so implementations need no locking of their own.
type Progress func(unit int, elapsed time.Duration)

// defaultParallelism is the package-wide worker cap applied when a
// config leaves its Parallel field at zero; 0 itself means GOMAXPROCS.
var defaultParallelism atomic.Int64

// SetDefaultParallelism sets the package-wide cap on concurrent
// simulation units used by every runner whose config does not set its
// own Parallel value (this is what cmd/rekeysim's -parallel flag
// controls). n <= 0 restores the default of GOMAXPROCS. Parallelism
// never changes results: every runner merges per-unit output in unit
// order, so output is byte-identical to a sequential run.
func SetDefaultParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultParallelism.Store(int64(n))
}

// DefaultParallelism returns the package-wide worker cap: the value of
// the last SetDefaultParallelism call, or GOMAXPROCS.
func DefaultParallelism() int {
	if n := int(defaultParallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// workersFor resolves a config's Parallel field against the package
// default and the number of independent units to execute.
func workersFor(requested, units int) int {
	w := requested
	if w <= 0 {
		w = DefaultParallelism()
	}
	if w > units {
		w = units
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachUnit executes fn(unit) for unit = 0..n-1 on a work.Pool of at
// most workers goroutines. Units must be independent: each derives its
// own RNG from its index and writes results only to its own
// index-addressed slot, so merged output is identical to the sequential
// path regardless of scheduling. progress, when non-nil, is called once
// per successfully completed unit (serialised, but not in unit order
// when workers > 1).
//
// Wall-clock discipline: the elapsed times handed to progress are the
// ONLY wall-clock reads in the runners, they exist solely for stderr
// reporting, and the clock is not read at all when progress is nil.
// Unit results must never include them — experiment outputs are
// byte-compared across runs (see TestRunnersIgnoreWallClock).
//
// All units are attempted even if one fails; the returned error is that
// of the lowest-numbered failing unit, matching what a sequential loop
// would report.
func forEachUnit(n, workers int, progress Progress, fn func(unit int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var progressMu sync.Mutex
	work.NewPool(workers).Run(n, func(_ int, next func() (int, bool)) {
		for {
			unit, ok := next()
			if !ok {
				return
			}
			var start time.Time
			if progress != nil {
				start = time.Now()
			}
			errs[unit] = fn(unit)
			if errs[unit] == nil && progress != nil {
				elapsed := time.Since(start)
				progressMu.Lock()
				progress(unit, elapsed)
				progressMu.Unlock()
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
