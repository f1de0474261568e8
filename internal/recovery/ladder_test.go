package recovery

import (
	"math/rand"
	"testing"
	"time"

	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
)

var tp = ident.Params{Digits: 3, Base: 8}

func buildWorld(t *testing.T, n int, seed int64) (*overlay.Directory, *keytree.Tree, *keytree.Message, []ident.ID) {
	t.Helper()
	cfg := vnet.GTITMConfig{
		TransitDomains:   2,
		TransitPerDomain: 2,
		StubsPerTransit:  2,
		TotalRouters:     120,
		TotalLinks:       300,
		AccessDelayMin:   time.Millisecond,
		AccessDelayMax:   3 * time.Millisecond,
	}
	net, err := vnet.NewGTITM(cfg, n+1, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := overlay.NewDirectory(tp, 2, net, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := keytree.New(tp, []byte("recovery"), keytree.Opts{RealCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	used := map[string]bool{}
	var ids []ident.ID
	for len(ids) < n {
		id, err := ident.FromInt(tp, rng.Intn(tp.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		if used[id.Key()] {
			continue
		}
		used[id.Key()] = true
		if err := dir.Join(overlay.Record{Host: vnet.HostID(len(ids) + 1), ID: id}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := tree.Batch(ids, nil); err != nil {
		t.Fatal(err)
	}
	// One churn interval to produce a message.
	leavers := ids[:3]
	for _, id := range leavers {
		if err := dir.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := tree.Batch(nil, leavers)
	if err != nil {
		t.Fatal(err)
	}
	return dir, tree, msg, ids[3:]
}

func TestLadderValidation(t *testing.T) {
	dir, _, msg, _ := buildWorld(t, 10, 1)
	sim := eventsim.New()
	base := LadderConfig{
		Dir: dir, Sim: sim, Timeout: time.Second,
		RetryBase: 100 * time.Millisecond, RetryMax: time.Second, RetryBudget: 3,
	}
	bad := []func(c *LadderConfig){
		func(c *LadderConfig) { c.Dir = nil },
		func(c *LadderConfig) { c.Sim = nil },
		func(c *LadderConfig) { c.Timeout = 0 },
		func(c *LadderConfig) { c.RetryBudget = 0 },
		func(c *LadderConfig) { c.RetryBase = 0 },
		func(c *LadderConfig) { c.RetryMax = 50 * time.Millisecond },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if _, err := DistributeLadder(c, msg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if _, err := DistributeLadder(base, nil); err == nil {
		t.Error("nil message should fail")
	}
}

func TestLadderAllByMulticastWhenLossless(t *testing.T) {
	dir, _, msg, survivors := buildWorld(t, 30, 3)
	sim := eventsim.New()
	res, err := DistributeLadder(LadderConfig{
		Dir: dir, Sim: sim, Timeout: time.Second,
		RetryBase: 50 * time.Millisecond, RetryMax: 500 * time.Millisecond, RetryBudget: 3,
	}, msg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	res.Finish()
	if len(res.Recovered) != 0 || len(res.Resynced) != 0 || res.UnicastAttempts != 0 {
		t.Errorf("lossless run used recovery: %+v", res)
	}
	for _, id := range survivors {
		if len(NeededBy(msg, id)) == 0 {
			continue
		}
		if rung, ok := res.RungOf[id.Key()]; !ok || rung != ByMulticast {
			t.Errorf("user %v rung = %v, %v; want multicast", id, rung, ok)
		}
	}
}

// TestLadderEngagesUnderLoss drops every multicast hop into one victim
// and the victim's first two recovery unicasts: the key must arrive by
// unicast on the third attempt, after two backoff waits.
func TestLadderEngagesUnderLoss(t *testing.T) {
	dir, _, msg, survivors := buildWorld(t, 30, 5)
	var victim ident.ID
	for _, id := range survivors {
		if len(NeededBy(msg, id)) > 0 {
			victim = id
			break
		}
	}
	vrec, _ := dir.Record(victim)
	sim := eventsim.New()
	res, err := DistributeLadder(LadderConfig{
		Dir: dir, Sim: sim, Timeout: time.Second,
		RetryBase: 50 * time.Millisecond, RetryMax: 500 * time.Millisecond, RetryBudget: 4,
		DropHop: func(from, to vnet.HostID) bool { return to == vrec.Host },
		DropUnicast: func(u ident.ID, attempt int) bool {
			return u.Equal(victim) && attempt <= 2
		},
	}, msg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	res.Finish()
	if len(res.Recovered) != 1 || !res.Recovered[0].Equal(victim) {
		t.Fatalf("Recovered = %v, want [%v]", res.Recovered, victim)
	}
	if res.UnicastAttempts != 3 || res.Retries != 2 {
		t.Errorf("attempts = %d retries = %d, want 3 and 2", res.UnicastAttempts, res.Retries)
	}
	if res.MaxBackoff != 100*time.Millisecond { // 50ms << 1 on the second failure
		t.Errorf("MaxBackoff = %v, want 100ms", res.MaxBackoff)
	}
	if rung := res.RungOf[victim.Key()]; rung != ByUnicast {
		t.Errorf("victim rung = %v, want unicast", rung)
	}
	if len(res.Resynced) != 0 {
		t.Errorf("unexpected resyncs: %v", res.Resynced)
	}
	// Every other surviving member got the key by multicast.
	for _, id := range survivors {
		if id.Equal(victim) || len(NeededBy(msg, id)) == 0 {
			continue
		}
		if res.RungOf[id.Key()] != ByMulticast {
			t.Errorf("user %v rung = %v, want multicast", id, res.RungOf[id.Key()])
		}
	}
}

// TestLadderFallsBackToResync exhausts the retry budget: delivery must
// still terminate, via the reliable resync rung.
func TestLadderFallsBackToResync(t *testing.T) {
	dir, _, msg, survivors := buildWorld(t, 30, 7)
	var victim ident.ID
	for _, id := range survivors {
		if len(NeededBy(msg, id)) > 0 {
			victim = id
			break
		}
	}
	vrec, _ := dir.Record(victim)
	sim := eventsim.New()
	res, err := DistributeLadder(LadderConfig{
		Dir: dir, Sim: sim, Timeout: time.Second,
		RetryBase: 50 * time.Millisecond, RetryMax: 200 * time.Millisecond, RetryBudget: 3,
		DropHop:     func(from, to vnet.HostID) bool { return to == vrec.Host },
		DropUnicast: func(u ident.ID, attempt int) bool { return u.Equal(victim) },
	}, msg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	res.Finish()
	if len(res.Resynced) != 1 || !res.Resynced[0].Equal(victim) {
		t.Fatalf("Resynced = %v, want [%v]", res.Resynced, victim)
	}
	// Users downstream of the victim also lost their multicast copies and
	// recovered in one attempt each, so only bound the total from below.
	if res.UnicastAttempts < 3 {
		t.Errorf("UnicastAttempts = %d, want >= the victim's full budget of 3", res.UnicastAttempts)
	}
	if res.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2", res.Retries)
	}
	if rung := res.RungOf[victim.Key()]; rung != ByResync {
		t.Errorf("victim rung = %v, want resync", rung)
	}
	if at, ok := res.DeliveredAt[victim.Key()]; !ok || at <= time.Second {
		t.Errorf("victim DeliveredAt = %v, %v; want after the timeout", at, ok)
	}
}

// TestLadderDeterministic: two identical runs produce identical results.
func TestLadderDeterministic(t *testing.T) {
	run := func() *LadderResult {
		dir, _, msg, _ := buildWorld(t, 30, 9)
		rng := rand.New(rand.NewSource(42))
		drops := make(map[vnet.HostID]bool)
		for h := 1; h <= 30; h++ {
			if rng.Intn(5) == 0 {
				drops[vnet.HostID(h)] = true
			}
		}
		sim := eventsim.New()
		res, err := DistributeLadder(LadderConfig{
			Dir: dir, Sim: sim, Timeout: time.Second,
			RetryBase: 50 * time.Millisecond, RetryMax: 500 * time.Millisecond, RetryBudget: 3,
			DropHop:     func(from, to vnet.HostID) bool { return drops[to] },
			DropUnicast: func(u ident.ID, attempt int) bool { return attempt == 1 },
		}, msg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
		res.Finish()
		return res
	}
	a, b := run(), run()
	if len(a.Recovered) != len(b.Recovered) || a.UnicastAttempts != b.UnicastAttempts ||
		a.Retries != b.Retries || a.ServerUnits != b.ServerUnits || a.MaxBackoff != b.MaxBackoff {
		t.Errorf("same-seed runs differ: %+v vs %+v", a, b)
	}
	for k, r := range a.RungOf {
		if b.RungOf[k] != r || a.DeliveredAt[k] != b.DeliveredAt[k] {
			t.Errorf("user %s differs across identical runs", k)
		}
	}
}

// TestRecoveryWithNoSplit: recovery also composes with unsplit
// multicast, and each recovered user costs the server only its Lemma 3
// slice — O(D) encryptions, not a retransmission of the whole message.
func TestRecoveryWithNoSplit(t *testing.T) {
	dir, _, msg, _ := buildWorld(t, 25, 4)
	calls := 0
	sim := eventsim.New()
	res, err := DistributeLadder(LadderConfig{
		Dir: dir, Sim: sim, Mode: split.NoSplit, Timeout: time.Second,
		RetryBase: time.Second, RetryMax: time.Second, RetryBudget: 1,
		DropHop: func(from, to vnet.HostID) bool {
			calls++
			return calls%4 == 0 // every 4th hop lost
		},
	}, msg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	res.Finish()
	if res.Multicast.Dropped == 0 || len(res.Recovered) == 0 {
		t.Fatalf("dropped %d hops, recovered %d users; test is vacuous", res.Multicast.Dropped, len(res.Recovered))
	}
	for _, id := range res.Recovered {
		if rung, ok := res.RungOf[id.Key()]; !ok || rung != ByUnicast {
			t.Errorf("recovered user %v rung = %v, %v; want unicast", id, rung, ok)
		}
	}
	if perUser := float64(res.ServerUnits) / float64(len(res.Recovered)); perUser > float64(tp.Digits+1) {
		t.Errorf("avg %.1f recovery encryptions per user exceeds path length %d", perUser, tp.Digits+1)
	}
}
