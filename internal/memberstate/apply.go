package memberstate

import (
	"fmt"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/work"
)

// Applier applies rekey messages to the keyrings of a store's members
// without a full-message scan per member: it indexes the message's
// encryptions by encrypting-key ID once, then hands each member the
// at-most-depth+1 encryptions on its own path (its Lemma 3 slice) as a
// small synthetic message, fanned out on a work.Pool. The index map is
// reused across messages, so steady-state apply allocates nothing
// proportional to the group. Not safe for concurrent Apply calls.
type Applier struct {
	store  *Store
	pool   *work.Pool
	label  string
	encIdx map[string]int32
}

// NewApplier returns an applier over the store that fans out on the
// pool (nil applies inline). A non-empty label wraps each worker's share
// in the pprof label set {group=label, stage=apply}.
func NewApplier(store *Store, pool *work.Pool, label string) *Applier {
	return &Applier{store: store, pool: pool, label: label, encIdx: make(map[string]int32, 1024)}
}

// applySlot is one pool worker's share of an Apply call.
type applySlot struct {
	updated int64
	failAt  int // member index of the slot's first failure
	err     error
}

// Apply applies the message to every listed member's keyring and
// returns the number of keys installed. Every member is attempted; on
// failure the error names the lowest-indexed failing member, so the
// report does not depend on scheduling.
func (a *Applier) Apply(msg *keytree.Message, members []ident.ID) (int64, error) {
	if len(members) == 0 || msg.Cost() == 0 {
		return 0, nil
	}
	clear(a.encIdx)
	full := false // fall back to full-message applies on duplicate enc IDs
	for i, e := range msg.Encryptions {
		k := e.ID.Key()
		if _, dup := a.encIdx[k]; dup {
			full = true
			break
		}
		a.encIdx[k] = int32(i)
	}

	slots := make([]applySlot, a.pool.Workers())
	a.pool.Run(len(members), func(slot int, next func() (int, bool)) {
		obs.WithStage(a.label, "apply", func() { a.applyShare(msg, members, full, &slots[slot], next) })
	})
	var total int64
	var first *applySlot
	for i := range slots {
		s := &slots[i]
		total += s.updated
		if s.err != nil && (first == nil || s.failAt < first.failAt) {
			first = s
		}
	}
	if first != nil {
		return total, first.err
	}
	return total, nil
}

// applyShare applies the members a worker claims from next. A slot
// claims indices in increasing order, so its first failure is its
// lowest-indexed one; later members are still drained, not applied.
func (a *Applier) applyShare(msg *keytree.Message, members []ident.ID, full bool, s *applySlot, next func() (int, bool)) {
	mini := keytree.Message{Interval: msg.Interval}
	scratch := make([]keycrypt.Encryption, 0, members[0].Len()+1)
	for {
		i, ok := next()
		if !ok {
			return
		}
		if s.err != nil {
			continue
		}
		id := members[i]
		kr := a.store.Keyring(id)
		if kr == nil {
			s.failAt, s.err = i, fmt.Errorf("member %v has no keyring", id)
			continue
		}
		var n int
		var err error
		if full {
			n, err = kr.Apply(msg)
		} else {
			scratch = scratch[:0]
			for l := 0; l <= id.Len(); l++ {
				if idx, ok := a.encIdx[id.Prefix(l).Key()]; ok {
					scratch = append(scratch, msg.Encryptions[idx])
				}
			}
			if len(scratch) == 0 {
				continue
			}
			mini.Encryptions = scratch
			n, err = kr.Apply(&mini)
		}
		if err != nil {
			s.failAt, s.err = i, fmt.Errorf("member %v: %w", id, err)
			continue
		}
		s.updated += int64(n)
	}
}

// InstallKeyrings gives each joiner the keyring built from its
// server-side path keys — the key server's join-time unicast.
func (s *Store) InstallKeyrings(tree *keytree.Tree, joins []ident.ID) error {
	for _, id := range joins {
		path, err := tree.PathKeys(id)
		if err != nil {
			return err
		}
		kr, err := keytree.NewKeyring(tree.Params(), id, path)
		if err != nil {
			return err
		}
		s.PutKeyring(id, kr)
	}
	return nil
}

// VerifyKeyrings spot-checks up to `sample` member keyrings, spread
// evenly across the group, against the server tree: every path key must
// match the tree's current key at that level. It returns an empty
// string when all sampled keyrings agree.
func (s *Store) VerifyKeyrings(tree *keytree.Tree, members []ident.ID, sample int) string {
	sample = min(sample, len(members))
	if sample <= 0 {
		return ""
	}
	stride := len(members) / sample
	for i := 0; i < sample; i++ {
		id := members[i*stride]
		kr := s.Keyring(id)
		if kr == nil {
			return fmt.Sprintf("member %v has no keyring", id)
		}
		for l := 0; l <= tree.Params().Digits; l++ {
			p := id.Prefix(l)
			var want keycrypt.Key
			var found bool
			if l == tree.Params().Digits {
				want, found = tree.IndividualKey(id)
			} else {
				want, _, found = tree.KeyOf(p)
			}
			if !found {
				return fmt.Sprintf("tree has no key at %v on %v's path", p, id)
			}
			got, ok := kr.Key(p)
			if !ok || got != want {
				return fmt.Sprintf("member %v disagrees with the tree at level %d", id, l)
			}
		}
	}
	return ""
}
