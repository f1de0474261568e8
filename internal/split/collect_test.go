package split

import (
	"reflect"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/work"
)

// TestCollectDeliveries verifies that Collect records one delivery per
// user, matching what OnDeliver observes, in the same arrival order.
func TestCollectDeliveries(t *testing.T) {
	w := newWorld(t, 40, 6, 6, 42)
	var observed []Delivery
	rep, err := Rekey(w.dir, w.msg, Options{
		Mode:    PerEncryption,
		Collect: true,
		OnDeliver: func(to ident.ID, encs []keycrypt.Encryption, level int) {
			observed = append(observed, Delivery{To: to, Level: level, Encryptions: encs})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deliveries) == 0 {
		t.Fatal("Collect recorded no deliveries")
	}
	if !reflect.DeepEqual(rep.Deliveries, observed) {
		t.Fatal("collected deliveries diverge from OnDeliver observations")
	}
}

// TestPrefilterEquivalence pins the parallel level-1 prefilter to the
// plain Filter path: identical reports and deliveries with and without
// a wide Options.Pool.
func TestPrefilterEquivalence(t *testing.T) {
	base := newWorld(t, 40, 6, 6, 42)
	pref := newWorld(t, 40, 6, 6, 42)

	baseRep, err := Rekey(base.dir, base.msg, Options{Mode: PerEncryption, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	prefRep, err := Rekey(pref.dir, pref.msg, Options{Mode: PerEncryption, Collect: true, Pool: work.NewPool(8)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseRep.ReceivedPerUser, prefRep.ReceivedPerUser) ||
		!reflect.DeepEqual(baseRep.ForwardedPerUser, prefRep.ForwardedPerUser) ||
		baseRep.ServerUnits != prefRep.ServerUnits {
		t.Fatal("prefilter changed the bandwidth report")
	}
	if !reflect.DeepEqual(baseRep.Deliveries, prefRep.Deliveries) {
		t.Fatal("prefilter changed the delivery log")
	}
}
