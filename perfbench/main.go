// Command perfbench is the repository's benchmark: it drives one
// workload in a closed loop from a single goroutine (the next rekey
// boundary starts only after the previous one has finished), checks
// after every boundary that each member holds the server's group key,
// and prints the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a traced run beside the end-to-end figures of an untraced
// one. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-churn --seed 1 --seconds 25 --trace 0
//
// The exit code is non-zero on a usage error, a failed workload, or a
// correctness-gate violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tmesh/internal/obs"
)

// runOpts configures one measured loop of a workload.
type runOpts struct {
	seed    int64
	seconds time.Duration
	setups  int           // set-ups to time; the last one is measured
	rec     *recorder     // nil for the untraced run
	reg     *obs.Registry // nil for the untraced run
}

type benchWorkload struct {
	run  func(runOpts) (*result, error)
	note string
	// setups is how many set-ups an untraced run times. The daemon's
	// set-up ends with a boundary that either loses an ack to inbox
	// overflow and waits out the 500 ms ladder timeout or does not, so
	// its set-up time has two modes and takes more samples. Paper-churn's
	// rekey times differ by membership (one set-up's median can sit 30%
	// below another's), so it measures five memberships.
	setups int
}

var workloads = map[string]benchWorkload{
	"paper-churn": {runPaperChurn,
		"one core.Group on the 5000-router GT-ITM topology, 1024 members on 1200 hosts, 16 leaves + 16 joins per boundary", 5},
	"bulk-churn-keyplane": {runKeyPlane,
		"grouphost.Run with key-plane tenants only, 1% of each tenant joining and 1% leaving per boundary", 3},
	"daemon-loopback": {runDaemon,
		"rekeyd world of 1024 members, 16 leaves + 16 joins per boundary; traffic crossed the in-process loopback transport, not a socket or a real link", 9},
}

// more reports whether a measured loop runs boundary b: until the
// deadline, and at least until the tail percentile has enough samples.
func more(b int, deadline time.Time) bool {
	return b <= tailBeyond+1 || time.Now().Before(deadline)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 10, "how long the measured loop runs")
	traceOn := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s} --seed N --seconds N>=1 --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	fmt.Fprintf(stdout, "# workload %s: %s\n", *name, wl.note)
	fmt.Fprintf(stdout, "# seed=%d nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		*seed, nproc(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(stdout, "# closed loop from one goroutine, %d s measured\n", *seconds)

	dur := time.Duration(*seconds) * time.Second
	var res *result
	var metrics []metric
	if *traceOn == 0 {
		var err error
		res, err = wl.run(runOpts{seed: *seed, seconds: dur, setups: wl.setups})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		printEndToEnd(stdout, res)
		metrics = res.endToEnd()
	} else {
		// Half the time untraced, half traced, each after its own
		// set-up: the difference is the tracing overhead.
		plain, err := wl.run(runOpts{seed: *seed, seconds: dur / 2, setups: 1})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (untraced): %v\n", *name, err)
			return 1
		}
		rec := newRecorder()
		res, err = wl.run(runOpts{seed: *seed, seconds: dur / 2, setups: 1, rec: rec, reg: obs.New()})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", *name, err)
			return 1
		}
		printOverhead(stdout, plain, res)
		spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := rec.writeJSONL(spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans of the traced run: %s\n", spans)
		if dup := res.layers["tmesh.duplicate_deliveries"]; dup > 0 {
			res.fail("tmesh counted %v duplicate deliveries (Theorem 1 allows none)", dup)
		}
		res.attempted += plain.attempted
		res.failed += plain.failed
		res.failures = append(res.failures, plain.failures...)
		metrics = printLayers(stdout, res)
	}
	for _, f := range res.failures {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	if err := printResult(stdout, res, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// nproc is the worker count every pool and parallelism knob is set to.
func nproc() int { return runtime.NumCPU() }

func printEndToEnd(w io.Writer, r *result) {
	for _, m := range append(r.endToEnd(), r.workloadOnly()...) {
		fmt.Fprintf(w, "%-24s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	if len(r.joins) == 0 {
		fmt.Fprintf(w, "%-24s not exercised by this workload\n", "join_ms_p50, join_ms_tail")
	}
	if len(r.encPerMember) == 0 {
		fmt.Fprintf(w, "%-24s not exercised by this workload\n", "rekey_enc_per_member")
	}
	if r.expected == 0 {
		fmt.Fprintf(w, "%-24s not exercised by this workload\n", "ladder_share")
	}
}

// printOverhead sets the traced run's end-to-end figures beside the
// untraced run's.
func printOverhead(w io.Writer, plain, traced *result) {
	fmt.Fprintf(w, "%-24s %14s %14s %9s %s\n", "end-to-end", "untraced", "traced", "overhead", "unit")
	pm := append(plain.endToEnd(), plain.workloadOnly()...)
	tm := append(traced.endToEnd(), traced.workloadOnly()...)
	for i := range pm {
		over := "-"
		if pm[i].value != 0 {
			over = fmt.Sprintf("%+.1f%%", 100*(tm[i].value-pm[i].value)/pm[i].value)
		}
		fmt.Fprintf(w, "%-24s %14.4f %14.4f %9s %s\n", pm[i].name, pm[i].value, tm[i].value, over, pm[i].unit)
	}
}

// printLayers prints every per-layer metric and the bases of its
// ratios, and returns them for the result line.
func printLayers(w io.Writer, r *result) []metric {
	var out []metric
	for _, l := range layerNames {
		m := metric{name: l.name, unit: l.unit, value: r.layers[l.name]}
		fmt.Fprintf(w, "%-28s %16.6f %s\n", m.name, m.value, m.unit)
		out = append(out, m)
	}
	for _, b := range r.bases {
		fmt.Fprintf(w, "base: %s\n", b)
	}
	return out
}

// printResult writes the closing JSON line.
func printResult(w io.Writer, r *result, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(metrics))
	for _, m := range metrics {
		vals[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, vals})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
