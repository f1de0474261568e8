package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"tmesh/internal/obs"
)

// result is what one measured loop of a workload produced.
type result struct {
	setups     []time.Duration
	rekeys     []time.Duration // boundary until every member holds the new key
	joins      []time.Duration // core.Group.Join admissions (paper-churn)
	boundaries int
	ops        int           // joins plus leaves admitted and keyed
	busy       time.Duration // wall time of the measured boundaries
	encs       int           // summed rekey cost of the measured boundaries

	encPerMember []float64 // per boundary, mean encryptions a member received

	ladderAcked, expected int // daemon-loopback: acks via unicast or resync, of members expected

	attempted, failed int
	failures          []string

	heapMB float64
	layers map[string]float64 // traced run only
	bases  []string           // ratio bases, printed beside the ratios
}

// maxFailuresKept bounds the failure messages a result keeps to print.
const maxFailuresKept = 8

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailuresKept {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// metric is one named value with its unit.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // the base of a ratio, or the percentile of a tail
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = secs(d)
	}
	return out
}

// endToEnd lists the metrics every workload reports; they form the
// result line of an untraced run.
func (r *result) endToEnd() []metric {
	rekeys := durationsMS(r.rekeys)
	pct, tailMS, _ := tail(rekeys)
	ops := 0.0
	if r.busy > 0 {
		ops = float64(r.ops) / r.busy.Seconds()
	}
	enc := 0.0
	if r.boundaries > 0 {
		enc = float64(r.encs) / float64(r.boundaries)
	}
	return []metric{
		{"setup_s", "s", median(durationsS(r.setups)), fmt.Sprintf("median of %d set-ups", len(r.setups))},
		{"rekey_ms_p50", "ms", median(rekeys), fmt.Sprintf("n=%d, %s", len(rekeys), quartileNote(rekeys))},
		{"rekey_ms_tail", "ms", tailMS, fmt.Sprintf("p%.2f, n=%d", pct, len(rekeys))},
		{"churn_ops_per_s", "1/s", ops, fmt.Sprintf("%d ops in %.3f s", r.ops, r.busy.Seconds())},
		{"rekey_enc_per_boundary", "count", enc, fmt.Sprintf("%d encryptions / %d boundaries", r.encs, r.boundaries)},
		{"live_heap_mb", "MB", r.heapMB, ""},
	}
}

// quartileNote states the first and third quartile of xs.
func quartileNote(xs []float64) string {
	q, ok := quartiles(xs)
	if !ok {
		return "too few samples for quartiles"
	}
	return fmt.Sprintf("q1=%.4f q3=%.4f", q[0], q[2])
}

// workloadOnly lists the end-to-end metrics only some workloads
// exercise; they are printed, and their absence elsewhere is stated.
func (r *result) workloadOnly() []metric {
	var out []metric
	if len(r.joins) > 0 {
		joins := durationsMS(r.joins)
		pct, v, _ := tail(joins)
		out = append(out,
			metric{"join_ms_p50", "ms", median(joins), fmt.Sprintf("n=%d, %s", len(joins), quartileNote(joins))},
			metric{"join_ms_tail", "ms", v, fmt.Sprintf("p%.2f, n=%d", pct, len(joins))})
	}
	if len(r.encPerMember) > 0 {
		sum := 0.0
		for _, v := range r.encPerMember {
			sum += v
		}
		out = append(out, metric{"rekey_enc_per_member", "count", sum / float64(len(r.encPerMember)),
			fmt.Sprintf("mean over %d boundaries", len(r.encPerMember))})
	}
	if r.expected > 0 {
		out = append(out, metric{"ladder_share", "ratio", float64(r.ladderAcked) / float64(r.expected),
			fmt.Sprintf("%d acked via unicast or resync / %d members expected", r.ladderAcked, r.expected)})
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	out = append(out, metric{"error_rate", "ratio", rate, fmt.Sprintf("%d failed / %d attempted", r.failed, r.attempted)})
	return out
}

// correct reports whether the run passed the correctness gate.
func (r *result) correct() bool { return r.failed == 0 }

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// layerNames are the per-layer metrics of a traced run, in print
// order, with their units. A layer a workload does not exercise
// reports 0.
var layerNames = []struct{ name, unit string }{
	{"boundary.self_s", "s"},
	{"vnet.calls", "count"},
	{"vnet.busy_s", "s"},
	{"vnet.slow_calls", "count"},
	{"core.join.busy_s", "s"},
	{"core.join.self_s", "s"},
	{"core.leave.busy_s", "s"},
	{"core.leave.self_s", "s"},
	{"core.process.busy_s", "s"},
	{"core.distribute.busy_s", "s"},
	{"core_mark.busy_s", "s"},
	{"core_regen.busy_s", "s"},
	{"core_deliver.busy_s", "s"},
	{"core_apply.busy_s", "s"},
	{"core.apply_users", "count"},
	{"core.apply_skipped", "count"},
	{"core.apply_skipped_ratio", "ratio"},
	{"keytree.regen_subtrees", "count"},
	{"keytree.regen_busy_s", "s"},
	{"split.hops", "count"},
	{"split.forwarded_encs", "count"},
	{"split.delivered_encs", "count"},
	{"split.useful_ratio", "ratio"},
	{"tmesh.duplicate_deliveries", "count"},
	{"grouphost.boundary_busy_s", "s"},
	{"grouphost.non_regen_busy_s", "s"},
	{"rekeyd.rekey_busy_s", "s"},
	{"rekeyd.server_acks", "count"},
	{"rekeyd.server_unicasts", "count"},
	{"rekeyd.server_resyncs", "count"},
	{"rekeyd.member_forwards", "count"},
	{"rekeyd.member_reacks", "count"},
	{"transport.sent", "count"},
	{"transport.overflow", "count"},
	{"transport.overflow_ratio", "ratio"},
}

// obsDelta is the growth of the registry's instruments over the
// measured loop, summed across tenant namespaces: counters by value,
// histograms by sum.
type obsDelta struct {
	counters map[string]int64
	histSum  map[string]int64
}

// diffSnapshots subtracts before from after and folds every name onto
// its suffix after a tenant namespace ("t0_keytree_..." counts as
// "keytree_...") when the suffix is one the report knows.
func diffSnapshots(before, after obs.Snapshot) obsDelta {
	d := obsDelta{counters: map[string]int64{}, histSum: map[string]int64{}}
	for _, c := range before.Counters {
		d.counters[baseName(c.Name)] -= c.Value
	}
	for _, c := range after.Counters {
		d.counters[baseName(c.Name)] += c.Value
	}
	for _, h := range before.Histograms {
		d.histSum[baseName(h.Name)] -= h.Sum
	}
	for _, h := range after.Histograms {
		d.histSum[baseName(h.Name)] += h.Sum
	}
	return d
}

// add returns the sum of two deltas.
func (d obsDelta) add(o obsDelta) obsDelta {
	sum := obsDelta{counters: map[string]int64{}, histSum: map[string]int64{}}
	for _, x := range []obsDelta{d, o} {
		for k, v := range x.counters {
			sum.counters[k] += v
		}
		for k, v := range x.histSum {
			sum.histSum[k] += v
		}
	}
	return sum
}

// layerPrefixes are the instrument families the report reads.
var layerPrefixes = []string{"core_", "keytree_", "split_", "tmesh_", "rekeyd_", "transport_"}

// baseName strips a tenant namespace from an instrument name.
func baseName(name string) string {
	for _, p := range layerPrefixes {
		if i := strings.Index(name, p); i >= 0 {
			return name[i:]
		}
	}
	return name
}

// ratio divides, reading 0/0 as 0, and returns the base as text.
func ratio(num, den int64) (float64, string) {
	base := fmt.Sprintf("%d / %d", num, den)
	if den == 0 {
		return 0, base
	}
	return float64(num) / float64(den), base
}

// layerMetrics turns the traced loop's spans and instrument growth
// into the per-layer metrics the workloads share. Workload-specific
// metrics (vnet, grouphost) are added by the workload.
func layerMetrics(rec *recorder, d obsDelta) (map[string]float64, []string) {
	m := make(map[string]float64, len(layerNames))
	spans := rec.totals()
	m["boundary.self_s"] = secs(spans["boundary"].self)
	m["core.join.busy_s"] = secs(spans["core.join"].busy)
	m["core.join.self_s"] = secs(spans["core.join"].self)
	m["core.leave.busy_s"] = secs(spans["core.leave"].busy)
	m["core.leave.self_s"] = secs(spans["core.leave"].self)
	m["core.process.busy_s"] = secs(spans["core.process"].busy)
	m["core.distribute.busy_s"] = secs(spans["core.distribute"].busy)
	m["rekeyd.rekey_busy_s"] = secs(spans["rekeyd.rekey"].busy)

	for _, stage := range []string{"mark", "regen", "deliver", "apply"} {
		m["core_"+stage+".busy_s"] = secs(time.Duration(d.histSum["core_"+stage+"_ns"]))
	}
	applied, skipped := d.counters["core_apply_users"], d.counters["core_apply_skipped_users"]
	m["core.apply_users"] = float64(applied)
	m["core.apply_skipped"] = float64(skipped)
	var bases []string
	var base string
	m["core.apply_skipped_ratio"], base = ratio(skipped, applied+skipped)
	bases = append(bases, "core.apply_skipped_ratio = skipped / (applied + skipped) = "+base)

	m["keytree.regen_subtrees"] = float64(d.counters["keytree_regen_subtrees"])
	m["keytree.regen_busy_s"] = secs(time.Duration(d.histSum["keytree_regen_subtree_ns"]))

	fwd, dlv := d.counters["split_hop_forwarded_encryptions"], d.counters["split_delivered_encryptions"]
	m["split.hops"] = float64(d.counters["split_hops"])
	m["split.forwarded_encs"] = float64(fwd)
	m["split.delivered_encs"] = float64(dlv)
	m["split.useful_ratio"], base = ratio(dlv, fwd)
	bases = append(bases, "split.useful_ratio = delivered / forwarded = "+base)
	m["tmesh.duplicate_deliveries"] = float64(d.counters["tmesh_duplicate_deliveries"])

	for _, c := range []string{"server_acks", "server_unicasts", "server_resyncs", "member_forwards", "member_reacks"} {
		m["rekeyd."+c] = float64(d.counters["rekeyd_"+c])
	}
	sent, over := d.counters["transport_sent"], d.counters["transport_overflow"]
	m["transport.sent"] = float64(sent)
	m["transport.overflow"] = float64(over)
	m["transport.overflow_ratio"], base = ratio(over, sent)
	bases = append(bases, "transport.overflow_ratio = overflow / sent = "+base)
	return m, bases
}
