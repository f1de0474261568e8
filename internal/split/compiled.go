package split

// Compiled REKEY-MESSAGE-SPLIT: instead of re-running the RelevantTo
// string-prefix test on every encryption at every FORWARD hop, the
// message's split decisions are compiled once per rekey into a lookup
// table over the directory's ID tree. The compiler marks each item's
// encryption IDs as bit positions in a []uint64 word-set, then a single
// depth-first pass over the tree derives, for every node p, the set of
// items relevant to the subtree at p:
//
//	relevant(p) = path(p) ∪ sub(p)
//	path(c)     = path(p) ∪ exact(p)          (IDs that are proper
//	                                           prefixes of c: Theorem 2's
//	                                           "e.ID is a prefix of w")
//	sub(p)      = exact(p) ∪ hoisted(p) ∪ ⋃ sub(children)
//	                                          ("w is a prefix of e.ID")
//
// exact(p) holds the items whose ID is p itself. hoisted(p) holds items
// whose ID node is absent from the directory tree (membership can drift
// from the key tree under churn); since the trie is prefix-closed, only
// strict ancestors of an absent ID can be related to it, so its bits
// attach at the deepest present ancestor and propagate upward only.
//
// Each relevant-set is materialised eagerly into chunked arenas, so the
// per-hop split is a single map lookup returning a shared slice: zero
// heap allocations in steady state. Results are order-preserving
// subsequences of the input, byte-identical to Filter/FilterPackets for
// every tree node, at any compile parallelism. Callers must treat the
// returned slices as read-only — they are shared across hops.

import (
	"math/bits"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/work"
)

// arenaChunk is the granularity, in items, of the bulk allocations that
// back the materialised slices.
const arenaChunk = 1024

// table maps an ID-tree node key to the items relevant to its subtree.
type table[T any] struct {
	slices map[string][]T
}

// markFunc enumerates the encryption IDs carried by item i.
type markFunc func(i int, mark func(ident.Prefix))

// CompileArena recycles the working state of successive compilations —
// the per-worker DFS walkers with their word-set slabs, result maps, and
// materialisation chunks, plus the shared mark map — so a soak compiling
// one index per rekey interval sizes this state once instead of once per
// interval. Building a new index from an arena REUSES the chunks that
// back the previous index's slices, so it invalidates every index
// previously compiled from the same arena; keep one arena per family of
// sequentially compiled indexes. The zero value is not usable; call
// NewCompileArena. Not safe for concurrent compilations.
type CompileArena[T any] struct {
	marks   map[string]nodeBits
	walkers []*walker[T]
	merged  map[string][]T // reused merge target for parallel builds
}

// NewCompileArena creates an empty compile arena.
func NewCompileArena[T any]() *CompileArena[T] {
	return &CompileArena[T]{marks: make(map[string]nodeBits, 64)}
}

// walkerFor returns worker w's recycled walker, or nil on a fresh (or
// nil) arena slot.
func (a *CompileArena[T]) walkerFor(w int) *walker[T] {
	if a == nil || w >= len(a.walkers) {
		return nil
	}
	return a.walkers[w]
}

func (a *CompileArena[T]) store(w int, wk *walker[T]) {
	if a == nil {
		return
	}
	for len(a.walkers) <= w {
		a.walkers = append(a.walkers, nil)
	}
	a.walkers[w] = wk
}

// compileTable builds the lookup for all nodes of the tree, fanning the
// per-level-1-subtree walks out over the pool (nil compiles inline). The
// table's contents are a pure function of (tree, items), independent of
// the pool width and of arena reuse. ar may be nil (allocate fresh).
func compileTable[T any](tree *ident.Tree, items []T, ids markFunc, pool *work.Pool, ar *CompileArena[T]) table[T] {
	if tree == nil || tree.Size() == 0 || len(items) == 0 {
		// Nothing to compile; lookups fall back to filtering.
		return table[T]{slices: make(map[string][]T)}
	}
	words := (len(items) + 63) / 64
	// One combined entry per marked node keeps the DFS at a single map
	// lookup per visited node. Word-sets are carved from a shared slab —
	// there is one per distinct encryption ID.
	var marks map[string]nodeBits
	if ar != nil {
		clear(ar.marks)
		marks = ar.marks
	} else {
		marks = make(map[string]nodeBits, 64)
	}
	var bitSlab []uint64
	setBit := func(key string, i int, hoist bool) {
		nb := marks[key]
		sel := &nb.exact
		if hoist {
			sel = &nb.hoisted
		}
		if *sel == nil {
			if len(bitSlab) < words {
				bitSlab = make([]uint64, 64*words)
			}
			*sel, bitSlab = bitSlab[:words:words], bitSlab[words:]
		}
		(*sel)[i>>6] |= 1 << (uint(i) & 63)
		marks[key] = nb
	}
	for i := range items {
		ids(i, func(id ident.Prefix) {
			key := id.Key()
			if tree.HasNode(id) {
				setBit(key, i, false)
				return
			}
			// Absent ID: hoist to the deepest present ancestor (the
			// root always exists while the tree is non-empty).
			for l := len(key) - 1; l >= 0; l-- {
				if tree.HasNode(ident.PrefixFromKey(key[:l])) {
					setBit(key[:l], i, true)
					return
				}
			}
		})
	}

	digits := tree.ChildDigits(ident.EmptyPrefix)
	width := min(pool.Workers(), len(digits))
	rootExact := marks[ident.EmptyPrefix.Key()].exact
	hint := tree.NodeCount()/width + 8
	wks := make([]*walker[T], width)
	pool.Run(len(digits), func(slot int, next func() (int, bool)) {
		wk := ar.walkerFor(slot)
		if wk != nil {
			wk.reset(tree, items, words, marks)
		} else {
			wk = newWalker(tree, items, words, marks, hint)
		}
		wks[slot] = wk
		// Level-1 nodes inherit the root's exact bits on their path: a
		// root-ID encryption is a prefix of everything.
		copyBits(wk.path[1], rootExact)
		for {
			i, ok := next()
			if !ok {
				return
			}
			wk.walk(ident.EmptyPrefix.Child(digits[i]), 1)
		}
	})
	var outs []map[string][]T
	for slot, wk := range wks {
		if wk != nil { // nil: the slot's helper was never started
			ar.store(slot, wk)
			outs = append(outs, wk.out)
		}
	}
	// The walkers' key sets are disjoint (distinct level-1 subtrees), so
	// when one walker covered the whole tree its map serves as the table
	// directly; merging only happens when the walk actually fanned out.
	slices := outs[0]
	if len(outs) > 1 {
		if ar != nil {
			if ar.merged == nil {
				ar.merged = make(map[string][]T, tree.NodeCount()+1)
			}
			clear(ar.merged)
			slices = ar.merged
		} else {
			slices = make(map[string][]T, tree.NodeCount()+1)
		}
		for _, m := range outs {
			for k, v := range m {
				slices[k] = v
			}
		}
	}
	// Every encryption is relevant to the root subtree (the empty
	// prefix is a prefix of every ID), so the root serves the full
	// message without a separate materialisation.
	slices[ident.EmptyPrefix.Key()] = items
	return table[T]{slices: slices}
}

// nodeBits holds the marks attached to one tree node: the items whose
// ID is the node itself (exact) and the items hoisted to it because
// their own ID node is absent from the tree (hoisted).
type nodeBits struct {
	exact   []uint64
	hoisted []uint64
}

// walker carries one goroutine's DFS state: per-depth path/sub word-set
// scratch (reused across the whole walk) and the arena the relevant
// slices are carved from.
type walker[T any] struct {
	tree   *ident.Tree
	items  []T
	words  int
	marks  map[string]nodeBits
	slab   []uint64   // backing storage for path/sub/rel, reused across compiles
	path   [][]uint64 // path[d]: IDs that are strict prefixes of the depth-d node
	sub    [][]uint64 // sub[d]: scratch for the depth-d subtree union
	rel    []uint64
	chunks [][]T // materialisation arenas, rewound (not freed) on reset
	ci     int   // chunk currently being filled
	out    map[string][]T
}

func newWalker[T any](tree *ident.Tree, items []T, words int, marks map[string]nodeBits, hint int) *walker[T] {
	w := &walker[T]{out: make(map[string][]T, hint)}
	w.reset(tree, items, words, marks)
	return w
}

// reset rebinds a recycled walker to a new compilation, reusing its
// word-set slab, result map, and materialisation chunks when they are
// large enough. The slices handed out by the previous compile alias the
// rewound chunks, so resetting invalidates them.
func (w *walker[T]) reset(tree *ident.Tree, items []T, words int, marks map[string]nodeBits) {
	w.tree, w.items, w.words, w.marks = tree, items, words, marks
	depths := tree.Params().Digits + 1
	if need := (2*depths + 1) * words; cap(w.slab) < need {
		w.slab = make([]uint64, need)
	} else {
		w.slab = w.slab[:need]
	}
	if cap(w.path) < depths {
		w.path = make([][]uint64, depths)
		w.sub = make([][]uint64, depths)
	} else {
		w.path, w.sub = w.path[:depths], w.sub[:depths]
	}
	slab := w.slab
	for d := 0; d < depths; d++ {
		w.path[d], slab = slab[:words], slab[words:]
		w.sub[d], slab = slab[:words], slab[words:]
	}
	w.rel = slab[:words]
	clear(w.out)
	if len(w.chunks) > 0 {
		w.ci = 0
		w.chunks[0] = w.chunks[0][:0]
	}
}

// walk visits the subtree rooted at p (depth == p.Len(), with
// path[depth] already holding p's strict-prefix IDs), materialises p's
// relevant slice, and leaves the subtree union in sub[depth].
func (w *walker[T]) walk(p ident.Prefix, depth int) {
	key := p.Key()
	nb := w.marks[key]
	sub := w.sub[depth]
	copyBits(sub, nb.exact)
	orBits(sub, nb.hoisted)
	if depth < len(w.path)-1 {
		childPath := w.path[depth+1]
		copy(childPath, w.path[depth])
		orBits(childPath, nb.exact)
		w.tree.EachChildDigit(p, func(d ident.Digit) {
			w.walk(p.Child(d), depth+1)
			orBits(sub, w.sub[depth+1])
		})
	}
	copy(w.rel, w.path[depth])
	orBits(w.rel, sub)
	w.out[key] = w.materialize(w.rel)
}

// materialize carves the items selected by the word-set out of the
// walker's arena, preserving message order. Empty selections yield nil,
// matching Filter's nil-for-empty convention.
func (w *walker[T]) materialize(rel []uint64) []T {
	n := 0
	for _, word := range rel {
		n += bits.OnesCount64(word)
	}
	if n == 0 {
		return nil
	}
	if len(w.chunks) == 0 || cap(w.chunks[w.ci])-len(w.chunks[w.ci]) < n {
		w.nextChunk(n)
	}
	cur := w.chunks[w.ci]
	off := len(cur)
	sel := cur[off : off : off+n]
	for wi, word := range rel {
		base := wi << 6
		// Relevant items are usually contiguous in message order (keys
		// regenerate subtree by subtree), so copy whole runs of set
		// bits instead of appending element by element.
		for word != 0 {
			start := bits.TrailingZeros64(word)
			run := bits.TrailingZeros64(^(word >> uint(start)))
			sel = append(sel, w.items[base+start:base+start+run]...)
			if start+run == 64 {
				break
			}
			word &^= 1<<uint(start+run) - 1
		}
	}
	w.chunks[w.ci] = cur[:off+n]
	return sel
}

// nextChunk advances to a chunk with room for n items: the next recycled
// chunk that is big enough, else a fresh allocation appended to the
// chunk list.
func (w *walker[T]) nextChunk(n int) {
	if len(w.chunks) > 0 {
		w.ci++
	}
	for w.ci < len(w.chunks) {
		if cap(w.chunks[w.ci]) >= n {
			w.chunks[w.ci] = w.chunks[w.ci][:0]
			return
		}
		w.ci++
	}
	size := arenaChunk
	if n > size {
		size = n
	}
	w.chunks = append(w.chunks, make([]T, 0, size))
	w.ci = len(w.chunks) - 1
}

// copyBits sets dst to src, treating a nil src as all-zero.
func copyBits(dst, src []uint64) {
	if src == nil {
		clear(dst)
		return
	}
	copy(dst, src)
}

// orBits folds src into dst; nil src is a no-op.
func orBits(dst, src []uint64) {
	for i, word := range src {
		dst[i] |= word
	}
}

// Index is a compiled per-encryption splitter for one rekey message
// against one directory snapshot. Build it once per rekey with NewIndex
// and pass Split as the transport's SplitHop: every hop covering a tree
// node present at compile time is answered by a table lookup with zero
// allocations; any other subtree (e.g. a node created by churn after
// compilation) falls back to the legacy Filter scan, which is equally
// correct. Split is safe for concurrent use; the returned slices are
// shared and must be treated as read-only.
type Index struct {
	table table[keycrypt.Encryption]
}

// NewIndex compiles the split decisions of the message's encryptions on
// the pool (nil compiles inline), through a reusable arena (nil means
// allocate fresh). Reusing the arena invalidates every Index previously
// compiled from it — see CompileArena.
func NewIndex(tree *ident.Tree, encs []keycrypt.Encryption, pool *work.Pool, ar *CompileArena[keycrypt.Encryption]) *Index {
	return &Index{table: compileTable(tree, encs, func(i int, mark func(ident.Prefix)) {
		mark(encs[i].ID)
	}, pool, ar)}
}

// Split returns the encryptions relevant to the subtree — byte-identical
// to Filter(encs, subtree) for any hop payload of the compiled message.
func (ix *Index) Split(encs []keycrypt.Encryption, subtree ident.Prefix) []keycrypt.Encryption {
	if out, ok := ix.table.slices[subtree.Key()]; ok {
		return out
	}
	return Filter(encs, subtree)
}

// PacketIndex is the packet-granularity analogue of Index: a packet is
// relevant to a subtree iff any encryption it carries is (the PerPacket
// rule of Section 2.5), so each packet's bit is marked under every
// encryption ID it contains.
type PacketIndex struct {
	table table[Packet]
}

// NewPacketIndex compiles the packet-level split decisions on the pool
// (nil compiles inline), through a reusable arena (nil means allocate
// fresh). Reusing the arena invalidates every PacketIndex previously
// compiled from it — see CompileArena.
func NewPacketIndex(tree *ident.Tree, pkts []Packet, pool *work.Pool, ar *CompileArena[Packet]) *PacketIndex {
	return &PacketIndex{table: compileTable(tree, pkts, func(i int, mark func(ident.Prefix)) {
		for _, e := range pkts[i] {
			mark(e.ID)
		}
	}, pool, ar)}
}

// Split returns the packets relevant to the subtree — byte-identical to
// FilterPackets(pkts, subtree) for any hop payload of the compiled
// message.
func (ix *PacketIndex) Split(pkts []Packet, subtree ident.Prefix) []Packet {
	if out, ok := ix.table.slices[subtree.Key()]; ok {
		return out
	}
	return FilterPackets(pkts, subtree)
}
