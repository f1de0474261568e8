package split

import (
	"bytes"
	"fmt"
	"testing"

	"tmesh/internal/obs"
	"tmesh/internal/obs/trace"
	"tmesh/internal/work"
)

// TestTraceMatchesDeliveries is the flight-recorder ground-truth
// property: across seeds and prefilter parallelism, the delivery set
// reconstructed from non-dropped hop records must equal the transport's
// own Report.Deliveries — same users, same forwarding levels, same
// encryption slices — and the full theorem audit must come back green.
func TestTraceMatchesDeliveries(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed=%d,par=%d", seed, par), func(t *testing.T) {
				w := newWorld(t, 40, 6, 6, seed)
				var buf bytes.Buffer
				rec := trace.NewRecorder(seed, obs.NewSink(&buf))
				tr := rec.Begin("rekey", 1, 0, PerEncryption.String(), EncIDs(w.msg.Encryptions))
				for _, id := range w.live {
					tr.Member(id)
				}
				rep, err := Rekey(w.dir, w.msg, Options{
					Mode:    PerEncryption,
					Collect: true,
					Pool:    work.NewPool(par),
					Trace:   tr,
				})
				if err != nil {
					t.Fatal(err)
				}
				tr.End(w.live, true)
				if err := rec.Err(); err != nil {
					t.Fatal(err)
				}

				records, err := trace.ParseRecords(&buf)
				if err != nil {
					t.Fatal(err)
				}
				type arrival struct {
					level int
					items []string
				}
				fromTrace := map[string]arrival{}
				for _, r := range records {
					if r.Kind != "hop" || r.Dropped {
						continue
					}
					if _, dup := fromTrace[r.To]; dup {
						t.Errorf("trace delivered twice to %s", r.To)
					}
					fromTrace[r.To] = arrival{level: r.Level, items: r.Items}
				}
				if len(fromTrace) != len(rep.Deliveries) {
					t.Fatalf("trace reconstructs %d deliveries, transport reports %d",
						len(fromTrace), len(rep.Deliveries))
				}
				for _, d := range rep.Deliveries {
					got, ok := fromTrace[d.To.String()]
					if !ok {
						t.Fatalf("trace has no hop delivering to %s", d.To)
					}
					if got.level != d.Level {
						t.Errorf("user %s: trace level %d, report level %d", d.To, got.level, d.Level)
					}
					want := EncIDs(d.Encryptions)
					if len(got.items) != len(want) {
						t.Fatalf("user %s: trace items %v, report %v", d.To, got.items, want)
					}
					for i := range want {
						if got.items[i] != want[i] {
							t.Fatalf("user %s: trace items %v, report %v", d.To, got.items, want)
						}
					}
				}

				audits, err := trace.AuditRecords(records)
				if err != nil {
					t.Fatal(err)
				}
				if len(audits) != 1 {
					t.Fatalf("%d audits, want 1", len(audits))
				}
				a := audits[0]
				if a.Hops == 0 {
					t.Fatal("vacuous trace: no hops recorded")
				}
				if !a.OK() {
					for _, c := range a.Checks {
						for _, v := range c.Violations {
							t.Errorf("%s: %s", c.Name, v)
						}
					}
					t.Fatal("live per-encryption trace failed its theorem audit")
				}
			})
		}
	}
}
