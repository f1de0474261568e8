package obs

import (
	"context"
	"runtime/pprof"
)

// WithStage runs f under the pprof label set {group=<group>,
// stage=<stage>}, so a CPU profile captured via -pprof during a soak
// decomposes by tenant and by pipeline stage (mark / regen / deliver /
// apply). pprof.Do restores the goroutine's previous labels on return,
// so nesting and calling from pool workers are both safe — a stage
// body run on a shared worker pool can wrap itself and the worker
// comes back unlabelled.
//
// An empty group is the off-switch, mirroring the nil Registry: f runs
// directly, with no context or label-map allocation on the hot path.
func WithStage(group, stage string, f func()) {
	if group == "" {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("group", group, "stage", stage),
		func(context.Context) { f() })
}
