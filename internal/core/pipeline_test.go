package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/memberstate"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
	"tmesh/internal/work"
)

func newGroupParallel(t *testing.T, hosts, parallelism int, clusterMode bool) *Group {
	t.Helper()
	g, err := NewGroup(Config{
		Net:             testNet(t, hosts),
		ServerHost:      0,
		Assign:          smallAssign(),
		K:               2,
		Seed:            5,
		RealCrypto:      true,
		ClusterRekeying: clusterMode,
		Parallelism:     parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// driveWorkload runs the same deterministic join/churn schedule against
// a group and returns the rekey messages and reports of each interval.
func driveWorkload(t *testing.T, g *Group) (members []ident.ID, msgs []*keytree.Message, reps []*split.Report) {
	t.Helper()
	for h := 1; h <= 25; h++ {
		id, _, err := g.Join(vnet.HostID(h), time.Duration(h)*time.Second)
		if err != nil {
			t.Fatalf("join %d: %v", h, err)
		}
		members = append(members, id)
	}
	flush := func() {
		msg, err := g.ProcessInterval()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := g.DistributeRekey(msg)
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, msg)
		reps = append(reps, rep)
	}
	flush()
	for _, id := range members[:6] {
		if err := g.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	members = members[6:]
	for h := 26; h <= 31; h++ {
		id, _, err := g.Join(vnet.HostID(h), time.Duration(h)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, id)
	}
	flush()
	return members, msgs, reps
}

// TestPipelineSeqParEquivalence is the determinism contract of the
// staged pipeline: the same seed and workload must produce
// byte-identical rekey messages, identical split reports, and identical
// final member state at parallelism 1 and N. Run under -race this also
// exercises the sharded member store and the fan-out stages.
func TestPipelineSeqParEquivalence(t *testing.T) {
	for _, clusterMode := range []bool{false, true} {
		name := "tree"
		if clusterMode {
			name = "cluster"
		}
		t.Run(name, func(t *testing.T) {
			seqG := newGroupParallel(t, 40, 1, clusterMode)
			parG := newGroupParallel(t, 40, 8, clusterMode)
			seqMembers, seqMsgs, seqReps := driveWorkload(t, seqG)
			parMembers, parMsgs, parReps := driveWorkload(t, parG)

			if !reflect.DeepEqual(seqMembers, parMembers) {
				t.Fatal("membership diverged between parallelism settings")
			}
			if len(seqMsgs) != len(parMsgs) {
				t.Fatalf("interval counts differ: %d vs %d", len(seqMsgs), len(parMsgs))
			}
			for i := range seqMsgs {
				a, b := seqMsgs[i], parMsgs[i]
				if a.Interval != b.Interval || len(a.Encryptions) != len(b.Encryptions) {
					t.Fatalf("interval %d: message shape differs", i)
				}
				for j := range a.Encryptions {
					ea, eb := a.Encryptions[j], b.Encryptions[j]
					if ea.ID != eb.ID || ea.KeyID != eb.KeyID || ea.KeyVersion != eb.KeyVersion ||
						!bytes.Equal(ea.Ciphertext, eb.Ciphertext) {
						t.Fatalf("interval %d encryption %d: not byte-identical", i, j)
					}
				}
			}
			for i := range seqReps {
				a, b := seqReps[i], parReps[i]
				if !reflect.DeepEqual(a.ReceivedPerUser, b.ReceivedPerUser) ||
					!reflect.DeepEqual(a.ForwardedPerUser, b.ForwardedPerUser) ||
					!reflect.DeepEqual(a.LinkUnits, b.LinkUnits) ||
					a.ServerUnits != b.ServerUnits {
					t.Fatalf("interval %d: reports differ", i)
				}
				if !reflect.DeepEqual(a.Deliveries, b.Deliveries) {
					t.Fatalf("interval %d: delivery logs differ", i)
				}
			}

			checkConverged(t, seqG, seqMembers)
			checkConverged(t, parG, parMembers)
			wantGK, _ := seqG.ServerGroupKey()
			gotGK, _ := parG.ServerGroupKey()
			if !wantGK.Equal(gotGK) {
				t.Fatal("server group keys differ between parallelism settings")
			}
			for _, id := range seqMembers {
				a, okA := seqG.GroupKeyOf(id)
				b, okB := parG.GroupKeyOf(id)
				if okA != okB || (okA && !a.Equal(b)) {
					t.Fatalf("user %v: group keys differ", id)
				}
			}
		})
	}
}

// TestIncrementalLeaderKeyrings asserts that cluster mode builds a
// keyring only when a leader enters the leaders-only tree, instead of
// rebuilding every leader every interval: rebuild counts track leader
// churn, not interval count.
func TestIncrementalLeaderKeyrings(t *testing.T) {
	g := newGroupParallel(t, 40, 1, true)
	var members []ident.ID
	for h := 1; h <= 20; h++ {
		id, _, err := g.Join(vnet.HostID(h), time.Duration(h)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, id)
	}
	msg, err := g.ProcessInterval()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.DistributeRekey(msg); err != nil {
		t.Fatal(err)
	}
	leaders := g.Clusters().Tree().Size()
	after := g.KeyringRebuilds()
	if after != leaders {
		t.Fatalf("initial interval built %d keyrings for %d leaders", after, leaders)
	}

	// Churn-free intervals must not rebuild anything.
	for i := 0; i < 3; i++ {
		if _, err := g.ProcessInterval(); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.KeyringRebuilds(); got != after {
		t.Fatalf("churn-free intervals rebuilt keyrings: %d -> %d", after, got)
	}

	// A leader departure elects a replacement: exactly the new leader
	// (at most one here) may be rebuilt, incumbents are untouched.
	var leader ident.ID
	for _, id := range members {
		if g.Clusters().IsLeader(id) {
			leader = id
			break
		}
	}
	if leader.IsZero() {
		t.Fatal("no leader found")
	}
	if err := g.Leave(leader); err != nil {
		t.Fatal(err)
	}
	msg, err = g.ProcessInterval()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Cost() > 0 {
		if _, err := g.DistributeRekey(msg); err != nil {
			t.Fatal(err)
		}
	}
	grew := g.KeyringRebuilds() - after
	if grew > 1 {
		t.Fatalf("leader handoff rebuilt %d keyrings, want <= 1", grew)
	}
	// Remaining members still converge to the server key.
	live := members[:0]
	for _, id := range members {
		if !id.Equal(leader) {
			live = append(live, id)
		}
	}
	checkConverged(t, g, live)
}

// TestApplyErrorAggregation verifies the apply stage reports every
// failing user, sorted by user ID, rather than an arbitrary map pick.
func TestApplyErrorAggregation(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 16}
	tree, err := keytree.New(params, []byte("apply-err"), keytree.Opts{RealCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := []ident.ID{
		ident.MustNew(params, []ident.Digit{2, 0, 0}),
		ident.MustNew(params, []ident.Digit{0, 1, 0}),
		ident.MustNew(params, []ident.Digit{7, 3, 2}),
	}
	if _, err := tree.Batch(ids, nil); err != nil {
		t.Fatal(err)
	}
	store := memberstate.NewStore()
	for _, id := range ids {
		path, err := tree.PathKeys(id)
		if err != nil {
			t.Fatal(err)
		}
		kr, err := keytree.NewKeyring(params, id, path)
		if err != nil {
			t.Fatal(err)
		}
		store.PutKeyring(id, kr)
	}
	// Churn the tree so real encryptions exist, then corrupt them: every
	// keyring's unwrap fails.
	msg, err := tree.Batch(nil, ids[2:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg.Encryptions {
		if len(msg.Encryptions[i].Ciphertext) > 0 {
			msg.Encryptions[i].Ciphertext[0] ^= 0xff
		}
	}
	var deliveries []split.Delivery
	// Deliver in non-sorted order to prove the report sorts.
	for _, id := range []ident.ID{ids[1], ids[0]} {
		var encs = msg.Encryptions
		deliveries = append(deliveries, split.Delivery{To: id, Level: 1, Encryptions: encs})
	}
	applier := &storeApplier{store: store, pool: work.NewPool(4)}
	err = applier.Apply(msg.Interval, deliveries)
	if err == nil {
		t.Fatal("corrupted encryptions should fail to apply")
	}
	var agg *ApplyError
	if !errors.As(err, &agg) {
		t.Fatalf("error type %T, want *ApplyError", err)
	}
	if len(agg.Users) != 2 {
		t.Fatalf("aggregated %d failures, want 2", len(agg.Users))
	}
	if agg.Users[0].Key() >= agg.Users[1].Key() {
		t.Fatalf("failures not sorted by user ID: %v before %v", agg.Users[0], agg.Users[1])
	}
	if agg.Unwrap() == nil {
		t.Fatal("ApplyError must unwrap to its first failure")
	}
}

// TestSharedPoolEquivalence is the tenancy variant of the determinism
// contract: a group drawing its regen/apply workers from an injected
// shared work.Pool must produce byte-identical rekey messages and
// identical final member state to a sequential group — and the pool
// must survive being shared by several groups in turn.
func TestSharedPoolEquivalence(t *testing.T) {
	pool := work.NewPool(8)
	defer pool.Close()

	newPooled := func(clusterMode bool) *Group {
		g, err := NewGroup(Config{
			Net:             testNet(t, 40),
			ServerHost:      0,
			Assign:          smallAssign(),
			K:               2,
			Seed:            5,
			RealCrypto:      true,
			ClusterRekeying: clusterMode,
			Pool:            pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	for _, clusterMode := range []bool{false, true} {
		name := "tree"
		if clusterMode {
			name = "cluster"
		}
		t.Run(name, func(t *testing.T) {
			seqG := newGroupParallel(t, 40, 1, clusterMode)
			poolG := newPooled(clusterMode)
			if got := poolG.Parallelism(); got != pool.Workers() {
				t.Fatalf("pooled group parallelism = %d, want pool width %d", got, pool.Workers())
			}
			seqMembers, seqMsgs, _ := driveWorkload(t, seqG)
			poolMembers, poolMsgs, _ := driveWorkload(t, poolG)

			if !reflect.DeepEqual(seqMembers, poolMembers) {
				t.Fatal("membership diverged between sequential and pooled runs")
			}
			if len(seqMsgs) != len(poolMsgs) {
				t.Fatalf("interval counts differ: %d vs %d", len(seqMsgs), len(poolMsgs))
			}
			for i := range seqMsgs {
				a, b := seqMsgs[i], poolMsgs[i]
				if a.Interval != b.Interval || len(a.Encryptions) != len(b.Encryptions) {
					t.Fatalf("interval %d: message shape differs", i)
				}
				for j := range a.Encryptions {
					ea, eb := a.Encryptions[j], b.Encryptions[j]
					if ea.ID != eb.ID || ea.KeyID != eb.KeyID || ea.KeyVersion != eb.KeyVersion ||
						!bytes.Equal(ea.Ciphertext, eb.Ciphertext) {
						t.Fatalf("interval %d encryption %d: not byte-identical", i, j)
					}
				}
			}
			checkConverged(t, poolG, poolMembers)
			wantGK, _ := seqG.ServerGroupKey()
			gotGK, _ := poolG.ServerGroupKey()
			if !wantGK.Equal(gotGK) {
				t.Fatal("server group keys differ between sequential and pooled runs")
			}
		})
	}
}
