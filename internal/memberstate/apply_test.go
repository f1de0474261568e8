package memberstate

import (
	"sort"
	"strings"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/work"
)

// applyWorld keys 200 members, then batches a 20-for-20 churn
// interval. It returns the tree, a store holding every survivor's
// pre-churn keyring, the churn message, the survivors and the joiners.
func applyWorld(t *testing.T) (*keytree.Tree, *Store, *keytree.Message, []ident.ID, []ident.ID) {
	t.Helper()
	tree, err := keytree.New(testParams, []byte("apply"), keytree.Opts{RealCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	var members, joins []ident.ID
	for n := 0; n < 220; n++ {
		if n < 200 {
			members = append(members, testID(t, n*17%testParams.Capacity()))
		} else {
			joins = append(joins, testID(t, n*17%testParams.Capacity()))
		}
	}
	sortIDs(members)
	if _, err := tree.Batch(members, nil); err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	if err := s.InstallKeyrings(tree, members); err != nil {
		t.Fatal(err)
	}
	var leaves, survivors []ident.ID
	for i, id := range members {
		if i%10 == 3 {
			leaves = append(leaves, id)
			s.Remove(id)
		} else {
			survivors = append(survivors, id)
		}
	}
	sortIDs(joins)
	msg, err := tree.Batch(joins, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return tree, s, msg, survivors, joins
}

func sortIDs(ids []ident.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
}

// TestApplierKeysEveryMemberAtAnyWidth: after the indexed apply and the
// join-time installs, every keyring agrees with the server tree, and the
// installed-key count is the same inline and on a wide pool.
func TestApplierKeysEveryMemberAtAnyWidth(t *testing.T) {
	var want int64 = -1
	for _, width := range []int{1, 4} {
		tree, s, msg, survivors, joins := applyWorld(t)
		updated, err := NewApplier(s, work.NewPool(width), "").Apply(msg, survivors)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if updated == 0 {
			t.Fatalf("width %d: churn rekey installed no keys", width)
		}
		if want >= 0 && updated != want {
			t.Errorf("width %d installed %d keys, width 1 installed %d", width, updated, want)
		}
		want = updated
		if err := s.InstallKeyrings(tree, joins); err != nil {
			t.Fatal(err)
		}
		all := append(append([]ident.ID(nil), survivors...), joins...)
		if v := s.VerifyKeyrings(tree, all, len(all)); v != "" {
			t.Errorf("width %d: %s", width, v)
		}
	}
}

// TestApplierReportsLowestFailingMember: with several members missing
// their keyrings, every width reports the lowest-indexed one.
func TestApplierReportsLowestFailingMember(t *testing.T) {
	for _, width := range []int{1, 4} {
		_, s, msg, survivors, _ := applyWorld(t)
		for _, i := range []int{150, 40, 90} {
			s.Remove(survivors[i])
		}
		_, err := NewApplier(s, work.NewPool(width), "").Apply(msg, survivors)
		if err == nil || !strings.Contains(err.Error(), survivors[40].String()) {
			t.Errorf("width %d: err = %v, want the failure of member %v", width, err, survivors[40])
		}
	}
}
