package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	pct, v, ok := tail(xs)
	if !ok || pct != 90 || v != 90 {
		t.Fatalf("tail(1..100) = p%v %v %v, want p90 90 true", pct, v, ok)
	}
	// Exactly ten samples (91..100) lie above the reported value.
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}

	pct, v, ok = tail([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11})
	if !ok || math.Abs(pct-100.0/11) > 1e-12 || v != 1 {
		t.Fatalf("tail of 11 samples = p%v %v %v, want p9.09 1 true", pct, v, ok)
	}
	if _, _, ok := tail([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); ok {
		t.Fatal("tail of 10 samples has no percentile with 10 beyond it")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2, 5, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		got, ok := quartiles(c.xs)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", c.xs)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Fatalf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Fatal("quartiles of one sample should not be ok")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	parent := r.add("parent", 1, -1, at(0), at(100))
	r.add("child", 1, parent, at(10), at(30))
	r.add("child", 1, parent, at(20), at(50)) // overlaps the first child
	r.add("child", 1, parent, at(60), at(70))
	r.add("child", 1, parent, at(95), at(120)) // runs past the parent's end

	got := r.totals()
	// Children cover [10,50) + [60,70) + [95,100) = 55 ms of the parent.
	if want := 45 * time.Millisecond; got["parent"].self != want {
		t.Fatalf("parent self = %v, want %v", got["parent"].self, want)
	}
	if want := 100 * time.Millisecond; got["parent"].busy != want {
		t.Fatalf("parent busy = %v, want %v", got["parent"].busy, want)
	}
	if c := got["child"]; c.busy != 85*time.Millisecond || c.self != c.busy {
		t.Fatalf("child totals = %+v, want 85ms busy, self = busy", c)
	}
}

func TestSelfTimeSubtractsLeafTime(t *testing.T) {
	var leaf time.Duration
	r := newRecorder()
	r.leafClock = func() time.Duration { return leaf }
	outer := r.begin("outer", 1)
	leaf += 2 * time.Millisecond // leaf calls made by outer itself
	inner := r.begin("inner", 1)
	leaf += 3 * time.Millisecond // leaf calls made under inner
	time.Sleep(10 * time.Millisecond)
	r.end(inner)
	time.Sleep(5 * time.Millisecond)
	r.end(outer)

	got := r.totals()
	in, out := got["inner"], got["outer"]
	if in.self != in.busy-3*time.Millisecond {
		t.Fatalf("inner self = %v, want busy %v minus 3ms", in.self, in.busy)
	}
	if out.self != out.busy-in.busy-2*time.Millisecond {
		t.Fatalf("outer self = %v, want busy %v minus inner %v minus 2ms", out.self, out.busy, in.busy)
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var r *recorder
	r.end(r.begin("x", 1))
	if r.add("x", 1, -1, time.Now(), time.Now()) != -1 || len(r.totals()) != 0 {
		t.Fatal("nil recorder recorded something")
	}
}

func TestSpansWrittenAsJSONL(t *testing.T) {
	r := newRecorder()
	root := r.begin("boundary", 7)
	r.end(r.begin("core.join", 7))
	r.end(root)
	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type rec struct {
		ID, Parent, Trace int
		Name              string
	}
	var got []rec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s rec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	want := []rec{{0, -1, 7, "boundary"}, {1, 0, 7, "core.join"}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("spans = %+v, want %+v", got, want)
	}
}

func TestGapsFromStamps(t *testing.T) {
	t0 := time.Unix(1000, 0)
	stamps := []time.Time{t0.Add(5 * time.Second), t0.Add(12 * time.Second), t0.Add(30 * time.Second)}
	got := gaps(t0, stamps)
	want := []time.Duration{5 * time.Second, 7 * time.Second, 18 * time.Second}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", got, want)
		}
	}
}

func TestStampWriterReadsCost(t *testing.T) {
	called := 0
	w := &stampWriter{at: map[int]func(){2: func() { called++ }}}
	for _, line := range []string{
		"t=8m32s t0 interval 1: cost=123 violations=0 slo=ok\n",
		"t=8m32s t1 interval 1: violations=0 slo=ok\n",
	} {
		if n, err := w.Write([]byte(line)); err != nil || n != len(line) {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	if len(w.stamps) != 2 || w.costs[0] != 123 || w.costs[1] != -1 {
		t.Fatalf("stamps %d, costs %v; want 2 stamps, costs [123 -1]", len(w.stamps), w.costs)
	}
	if called != 1 {
		t.Fatalf("hook after write 2 ran %d times, want 1", called)
	}
}

func TestRatioKeepsBase(t *testing.T) {
	if v, base := ratio(3, 12); v != 0.25 || base != "3 / 12" {
		t.Fatalf("ratio(3, 12) = %v %q", v, base)
	}
	if v, base := ratio(0, 0); v != 0 || base != "0 / 0" {
		t.Fatalf("ratio(0, 0) = %v %q", v, base)
	}
}

func TestBaseNameStripsTenantNamespace(t *testing.T) {
	for in, want := range map[string]string{
		"t3_keytree_regen_subtree_ns": "keytree_regen_subtree_ns",
		"transport_overflow":          "transport_overflow",
		"slo_pages":                   "slo_pages",
	} {
		if got := baseName(in); got != want {
			t.Fatalf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "paper-churn", "--seed", "1", "--seconds", "0", "--trace", "0"},
		{"--workload", "paper-churn", "--seed", "1", "--seconds", "1", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("run(%v) exited 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Fatalf("run(%v) printed a result: %s", args, out.String())
		}
	}
}

func TestMoreRunsMinimumBoundaries(t *testing.T) {
	past := time.Now().Add(-time.Second)
	if !more(tailBeyond+1, past) {
		t.Fatal("loop stopped before the tail had enough samples")
	}
	if more(tailBeyond+2, past) {
		t.Fatal("loop ran past the deadline with enough samples")
	}
	if !more(1000, time.Now().Add(time.Hour)) {
		t.Fatal("loop stopped before the deadline")
	}
}

func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bench.Workloads), len(workloads))
	}
	e2e := (&result{}).endToEnd()
	if len(e2e) != len(bench.EndToEnd) {
		t.Fatalf("end_to_end lists %d metrics, the result line has %d", len(bench.EndToEnd), len(e2e))
	}
	for i, m := range bench.EndToEnd {
		if e2e[i].name != m.Name || e2e[i].unit != m.Unit {
			t.Errorf("end_to_end[%d] = %s %s, result line has %s %s", i, m.Name, m.Unit, e2e[i].name, e2e[i].unit)
		}
	}
	if len(layerNames) != len(bench.PerLayer) {
		t.Fatalf("per_layer lists %d metrics, the traced result line has %d", len(bench.PerLayer), len(layerNames))
	}
	for i, m := range bench.PerLayer {
		if layerNames[i].name != m.Name || layerNames[i].unit != m.Unit {
			t.Errorf("per_layer[%d] = %s %s, traced result line has %s %s", i, m.Name, m.Unit, layerNames[i].name, layerNames[i].unit)
		}
	}
}
