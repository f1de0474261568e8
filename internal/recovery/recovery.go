// Package recovery implements limited unicast recovery of rekey
// messages, the fallback the paper relies on when multicast delivery
// fails or arrives too late (footnote 1: "the key server needs to send u
// the new group key via unicast if u cannot finish constructing its
// neighbor table before the end of the current rekey interval"; the
// mechanism follows Zhang-Lam-Lee's "group rekeying with limited unicast
// recovery" [31]).
//
// After a rekey multicast, any user that did not receive a copy of the
// interval's message — because a hop was lost, cutting off its whole
// delivery subtree — times out and requests recovery from the key
// server. The server answers each request with a unicast containing
// exactly the encryptions that user needs (the Lemma 3 selection), so
// recovery bandwidth is O(D) encryptions per lost user rather than a
// retransmission of the full message. DistributeLadder runs the whole
// exchange, with retries and a resync backstop, on an event simulator.
package recovery

import (
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
)

// NeededBy returns the Lemma 3 slice of a rekey message for one user —
// the encryptions the user must decrypt to stay current. Exported for
// auditors that have to decide whether a silent user was actually owed
// anything this interval.
func NeededBy(msg *keytree.Message, u ident.ID) []keycrypt.Encryption {
	var out []keycrypt.Encryption
	for _, e := range msg.Encryptions {
		if e.NeededBy(u) {
			out = append(out, e)
		}
	}
	return out
}
