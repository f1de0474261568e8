package work

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fill runs units through the pool, each worker writing a
// deterministic byte into its disjoint slot — the write pattern every
// pool caller in the tree follows.
func fill(p *Pool, units int) []byte {
	out := make([]byte, units)
	p.Run(units, func(slot int, next func() (int, bool)) {
		for {
			i, ok := next()
			if !ok {
				return
			}
			out[i] = byte(i * 7)
		}
	})
	return out
}

func TestRunCoversEveryUnitExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := NewPool(workers)
		counts := make([]atomic.Int64, 1000)
		p.Run(len(counts), func(slot int, next func() (int, bool)) {
			if slot < 0 || slot >= workers {
				t.Errorf("slot %d out of range [0,%d)", slot, workers)
			}
			for {
				i, ok := next()
				if !ok {
					return
				}
				counts[i].Add(1)
			}
		})
		for i := range counts {
			if n := counts[i].Load(); n != 1 {
				t.Fatalf("workers=%d: unit %d executed %d times", workers, i, n)
			}
		}
		p.Close()
	}
}

// TestDeterministicAcrossWidths is the contract the grouphost relies
// on: the same disjoint-write workload produces byte-identical results
// whether it runs inline, on a narrow pool, or on a wide one.
func TestDeterministicAcrossWidths(t *testing.T) {
	want := fill(nil, 512)
	for _, workers := range []int{1, 2, 3, 8, 32} {
		p := NewPool(workers)
		if got := fill(p, 512); !bytes.Equal(got, want) {
			t.Errorf("workers=%d diverged from inline result", workers)
		}
		p.Close()
	}
}

// TestNestedRunDoesNotDeadlock issues a Run from inside every worker
// body of an outer Run on a small pool — the nested calls must degrade
// to inline execution instead of waiting for helpers that are all
// occupied by the outer call.
func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var total atomic.Int64
	p.Run(8, func(_ int, next func() (int, bool)) {
		for {
			_, ok := next()
			if !ok {
				return
			}
			p.Run(16, func(_ int, inner func() (int, bool)) {
				for {
					_, ok := inner()
					if !ok {
						return
					}
					total.Add(1)
				}
			})
		}
	})
	if total.Load() != 8*16 {
		t.Fatalf("nested runs executed %d units, want %d", total.Load(), 8*16)
	}
}

// TestConcurrentRuns hammers one pool from many goroutines — the
// sharing mode a grouphost creates when groups overlap in time. Run
// under -race this is the pool's data-race guard.
func TestConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				if got := fill(p, 64); len(got) != 64 || got[63] != byte(63*7%256) {
					t.Error("concurrent run produced a wrong result")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestNoHelperOutlivesRun pins the pool's lack of a lifecycle: a pool
// that is never closed leaves no goroutine behind once Run returns.
func TestNoHelperOutlivesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(4)
	for r := 0; r < 10; r++ {
		fill(p, 256)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentRunsShareHelperBudget runs 8 callers at once on a
// width-3 pool: together they may occupy at most 2 helpers at any
// moment, however many Runs overlap.
func TestConcurrentRunsShareHelperBudget(t *testing.T) {
	p := NewPool(3)
	var active, peak atomic.Int64
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			p.Run(16, func(slot int, next func() (int, bool)) {
				if slot > 0 {
					n := active.Add(1)
					for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
					}
					defer active.Add(-1)
				}
				for {
					if _, ok := next(); !ok {
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			})
		}()
	}
	start.Done()
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak of %d helpers active on a width-3 pool, want <= 2", got)
	}
}

func TestNilPoolAndEdgeCases(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Errorf("nil pool width = %d, want 1", p.Workers())
	}
	p.Close() // must not panic
	if got := fill(p, 10); got[9] != byte(9*7) {
		t.Error("nil pool did not run inline")
	}
	p.Run(0, func(int, func() (int, bool)) { t.Error("worker invoked for zero units") })

	real := NewPool(0) // 0 → GOMAXPROCS
	if real.Workers() < 1 {
		t.Errorf("default pool width = %d", real.Workers())
	}
	real.Close()
	real.Close() // idempotent
	// After Close, Run still completes (inline).
	if got := fill(real, 5); got[4] != byte(4*7) {
		t.Error("closed pool did not run inline")
	}
}
