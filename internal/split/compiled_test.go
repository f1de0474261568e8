package split

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/obs"
	"tmesh/internal/obs/trace"
	"tmesh/internal/tmesh"
	"tmesh/internal/work"
)

// randSplitWorld draws a random member tree and message for the
// differential property tests: most encryption IDs sit on existing
// tree nodes, but a fraction are "phantom" IDs absent from the tree
// (membership drifted from the key tree), exercising the compiler's
// hoisted marks.
func randSplitWorld(t *testing.T, rng *rand.Rand, params ident.Params, members, encCount int) (*ident.Tree, []keycrypt.Encryption) {
	t.Helper()
	used := make(map[string]bool)
	var ids []ident.ID
	for len(ids) < members {
		id, err := ident.FromInt(params, rng.Intn(params.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		if !used[id.Key()] {
			used[id.Key()] = true
			ids = append(ids, id)
		}
	}
	tree, err := ident.BuildTree(params, ids)
	if err != nil {
		t.Fatal(err)
	}
	encs := make([]keycrypt.Encryption, encCount)
	for i := range encs {
		var id ident.Prefix
		if len(ids) > 0 && rng.Intn(5) > 0 {
			// Prefix of an existing member: an ID-tree node.
			id = ids[rng.Intn(len(ids))].Prefix(rng.Intn(params.Digits + 1))
		} else {
			// Arbitrary prefix, possibly absent from the tree.
			id = randPrefixOf(t, rng, params)
		}
		encs[i] = keycrypt.Encryption{ID: id, KeyVersion: uint64(i)}
	}
	return tree, encs
}

func randPrefixOf(t *testing.T, rng *rand.Rand, params ident.Params) ident.Prefix {
	t.Helper()
	l := rng.Intn(params.Digits + 1)
	digits := make([]ident.Digit, l)
	for i := range digits {
		digits[i] = rng.Intn(params.Base)
	}
	p, err := ident.PrefixOf(params, digits)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompiledIndexMatchesFilter: for random messages and trees, the
// compiled per-encryption split equals the legacy RelevantTo filter for
// every tree node (root included), every random subtree (present or
// absent), at compile parallelism 1 and 8 — covering empty messages,
// single-encryption messages, empty subtrees, and phantom IDs.
func TestCompiledIndexMatchesFilter(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		members := rng.Intn(30) + 1
		encCount := rng.Intn(40)
		switch trial {
		case 0:
			encCount = 0 // empty message
		case 1:
			encCount = 1 // single encryption
		}
		tree, encs := randSplitWorld(t, rng, params, members, encCount)
		for _, workers := range []int{1, 8} {
			ix := NewIndex(tree, encs, work.NewPool(workers), nil)
			check := func(q ident.Prefix) {
				got := ix.Split(encs, q)
				want := Filter(encs, q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d workers %d subtree %v: compiled %v != filter %v",
						trial, workers, q, EncIDs(got), EncIDs(want))
				}
			}
			tree.Walk(func(p ident.Prefix, _ int) bool { check(p); return true })
			check(ident.EmptyPrefix)
			for i := 0; i < 25; i++ {
				check(randPrefixOf(t, rng, params))
			}
		}
	}
	// Empty tree: everything falls back to the legacy filter.
	tree, err := ident.BuildTree(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	encs := []keycrypt.Encryption{{ID: randPrefixOf(t, rng, params)}}
	ix := NewIndex(tree, encs, work.NewPool(4), nil)
	for i := 0; i < 20; i++ {
		q := randPrefixOf(t, rng, params)
		if !reflect.DeepEqual(ix.Split(encs, q), Filter(encs, q)) {
			t.Fatalf("empty tree: compiled split diverged at %v", q)
		}
	}
}

// TestCompileArenaReuseMatchesFilter recompiles a long sequence of
// random worlds through one shared arena — varying tree shape, message
// size, and parallelism between compiles so slabs, chunks, and maps are
// recycled at mismatched sizes — and checks each fresh index against the
// legacy filter at every tree node. Only the most recent index is
// queried: arena reuse invalidates its predecessors by contract.
func TestCompileArenaReuseMatchesFilter(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
	rng := rand.New(rand.NewSource(202))
	ar := NewCompileArena[keycrypt.Encryption]()
	for trial := 0; trial < 80; trial++ {
		members := rng.Intn(30) + 1
		encCount := rng.Intn(50)
		tree, encs := randSplitWorld(t, rng, params, members, encCount)
		workers := []int{1, 8, 3}[trial%3]
		ix := NewIndex(tree, encs, work.NewPool(workers), ar)
		check := func(q ident.Prefix) {
			got := ix.Split(encs, q)
			want := Filter(encs, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers %d subtree %v: compiled %v != filter %v",
					trial, workers, q, EncIDs(got), EncIDs(want))
			}
		}
		tree.Walk(func(p ident.Prefix, _ int) bool { check(p); return true })
		check(ident.EmptyPrefix)
		for i := 0; i < 15; i++ {
			check(randPrefixOf(t, rng, params))
		}
	}

	// Packet-granularity arena, same reuse pattern.
	par := NewCompileArena[Packet]()
	for trial := 0; trial < 40; trial++ {
		tree, encs := randSplitWorld(t, rng, params, rng.Intn(30)+1, rng.Intn(60))
		pkts := Packetize(encs, rng.Intn(6)+1)
		workers := []int{8, 1}[trial%2]
		ix := NewPacketIndex(tree, pkts, work.NewPool(workers), par)
		tree.Walk(func(p ident.Prefix, _ int) bool {
			if !reflect.DeepEqual(ix.Split(pkts, p), FilterPackets(pkts, p)) {
				t.Fatalf("packet trial %d workers %d subtree %v: compiled split diverged",
					trial, workers, p)
			}
			return true
		})
	}
}

// TestCompiledPacketIndexMatchesFilterPackets is the packet-granularity
// analogue of TestCompiledIndexMatchesFilter.
func TestCompiledPacketIndexMatchesFilterPackets(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 120; trial++ {
		members := rng.Intn(30) + 1
		encCount := rng.Intn(60)
		switch trial {
		case 0:
			encCount = 0
		case 1:
			encCount = 1
		}
		tree, encs := randSplitWorld(t, rng, params, members, encCount)
		pkts := Packetize(encs, rng.Intn(6)+1)
		for _, workers := range []int{1, 8} {
			ix := NewPacketIndex(tree, pkts, work.NewPool(workers), nil)
			check := func(q ident.Prefix) {
				got := ix.Split(pkts, q)
				want := FilterPackets(pkts, q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d workers %d subtree %v: compiled kept %d packets, filter %d",
						trial, workers, q, len(got), len(want))
				}
			}
			tree.Walk(func(p ident.Prefix, _ int) bool { check(p); return true })
			check(ident.EmptyPrefix)
			for i := 0; i < 25; i++ {
				check(randPrefixOf(t, rng, params))
			}
		}
	}
}

// TestCompiledIndexConcurrentSplit hammers one index from several
// goroutines under -race: Split is read-only after compilation.
func TestCompiledIndexConcurrentSplit(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
	rng := rand.New(rand.NewSource(7))
	tree, encs := randSplitWorld(t, rng, params, 40, 80)
	ix := NewIndex(tree, encs, work.NewPool(8), nil)
	var nodes []ident.Prefix
	tree.Walk(func(p ident.Prefix, _ int) bool { nodes = append(nodes, p); return true })
	want := make([][]keycrypt.Encryption, len(nodes))
	for i, p := range nodes {
		want[i] = Filter(encs, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range nodes {
				if got := ix.Split(encs, p); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent split diverged at %v", p)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// legacyRekeyReport reruns the transport the way Rekey worked before the
// compiled index — a plain Filter/FilterPackets SplitHop on every hop —
// and assembles the same report shape, so the differential tests compare
// entire sessions, not just individual splits.
func legacyRekeyReport(t *testing.T, w *world, mode Mode, packetSize int) *Report {
	t.Helper()
	var (
		res        *tmesh.Result
		err        error
		deliveries []Delivery
	)
	switch mode {
	case PerEncryption:
		res, err = tmesh.Multicast(tmesh.Config[[]keycrypt.Encryption]{
			Dir:            w.dir,
			SenderIsServer: true,
			SizeOf:         func(encs []keycrypt.Encryption) int { return len(encs) },
			SplitHop:       Filter,
			OnDeliver: func(to ident.ID, encs []keycrypt.Encryption, level int) {
				deliveries = append(deliveries, Delivery{To: to, Level: level, Encryptions: encs})
			},
		}, w.msg.Encryptions)
	case PerPacket:
		res, err = tmesh.Multicast(tmesh.Config[[]Packet]{
			Dir:            w.dir,
			SenderIsServer: true,
			SizeOf: func(pkts []Packet) int {
				n := 0
				for _, p := range pkts {
					n += len(p)
				}
				return n
			},
			SplitHop: FilterPackets,
			OnDeliver: func(to ident.ID, pkts []Packet, level int) {
				var flat []keycrypt.Encryption
				for _, p := range pkts {
					flat = append(flat, p...)
				}
				deliveries = append(deliveries, Delivery{To: to, Level: level, Encryptions: flat})
			},
		}, Packetize(w.msg.Encryptions, packetSize))
	default:
		t.Fatalf("legacyRekeyReport: unsupported mode %v", mode)
	}
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{
		ReceivedPerUser:  make(map[string]int, len(res.Users)),
		ForwardedPerUser: make(map[string]int, len(res.Users)),
		LinkUnits:        res.LinkUnits,
		Deliveries:       deliveries,
	}
	for key, st := range res.Users {
		rep.ReceivedPerUser[key] = st.UnitsReceived
		rep.ForwardedPerUser[key] = st.UnitsForwarded
		if st.Level == 1 {
			rep.ServerUnits += st.UnitsReceived
		}
	}
	return rep
}

// TestRekeyCompiledMatchesLegacyTransport: full-session differential —
// the compiled Rekey path produces the same reports and the same
// delivery stream (order and contents) as the legacy per-hop filter, in
// both splitting modes, at compile pool width 1 and 8.
func TestRekeyCompiledMatchesLegacyTransport(t *testing.T) {
	w := newWorld(t, 40, 6, 6, 21)
	for _, mode := range []Mode{PerEncryption, PerPacket} {
		want := legacyRekeyReport(t, w, mode, 4)
		for _, par := range []int{1, 8} {
			got, err := Rekey(w.dir, w.msg, Options{Mode: mode, PacketSize: 4, Collect: true, Pool: work.NewPool(par)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.ReceivedPerUser, want.ReceivedPerUser) {
				t.Errorf("%v par %d: ReceivedPerUser diverged from legacy filter", mode, par)
			}
			if !reflect.DeepEqual(got.ForwardedPerUser, want.ForwardedPerUser) {
				t.Errorf("%v par %d: ForwardedPerUser diverged from legacy filter", mode, par)
			}
			if !reflect.DeepEqual(got.LinkUnits, want.LinkUnits) {
				t.Errorf("%v par %d: LinkUnits diverged from legacy filter", mode, par)
			}
			if got.ServerUnits != want.ServerUnits {
				t.Errorf("%v par %d: ServerUnits = %d, legacy %d", mode, par, got.ServerUnits, want.ServerUnits)
			}
			if !reflect.DeepEqual(got.Deliveries, want.Deliveries) {
				t.Errorf("%v par %d: delivery stream diverged from legacy filter", mode, par)
			}
		}
	}
}

// TestRekeyCompiledTraceByteIdentical: the flight-recorder stream of a
// session split by the compiled index is byte-for-byte the stream of the
// legacy filter — per-hop Items, EncsIn/Encs counts, spans, all of it.
func TestRekeyCompiledTraceByteIdentical(t *testing.T) {
	w := newWorld(t, 40, 6, 6, 33)
	run := func(splitHop func([]keycrypt.Encryption, ident.Prefix) []keycrypt.Encryption) []byte {
		var buf bytes.Buffer
		rec := trace.NewRecorder(5, obs.NewSink(&buf))
		tr := rec.Begin("rekey", 1, 0, PerEncryption.String(), EncIDs(w.msg.Encryptions))
		_, err := tmesh.Multicast(tmesh.Config[[]keycrypt.Encryption]{
			Dir:            w.dir,
			SenderIsServer: true,
			SizeOf:         func(encs []keycrypt.Encryption) int { return len(encs) },
			SplitHop:       splitHop,
			Trace:          tr,
			TraceItems:     EncIDs,
		}, w.msg.Encryptions)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	legacy := run(Filter)
	compiled := run(NewIndex(w.dir.Tree(), w.msg.Encryptions, work.NewPool(4), nil).Split)
	if !bytes.Equal(legacy, compiled) {
		t.Fatal("trace stream of the compiled split differs from the legacy filter's")
	}
}

// TestRekeyOptionDefaults pins the zero-value defaulting of
// split.Options on every Rekey path: Mode 0 is PerEncryption (plain,
// parallel-compile, and traced paths alike), and PacketSize <= 0 is 25
// in PerPacket mode.
func TestRekeyOptionDefaults(t *testing.T) {
	w := newWorld(t, 30, 4, 4, 17)
	reportKey := func(rep *Report) [2]any {
		return [2]any{rep.ReceivedPerUser, rep.ServerUnits}
	}
	want, err := Rekey(w.dir, w.msg, Options{Mode: PerEncryption})
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	tr := trace.NewRecorder(3, obs.NewSink(&traceBuf)).Begin("rekey", 1, 0, "", nil)
	for name, opts := range map[string]Options{
		"zero mode":          {},
		"zero mode parallel": {Pool: work.NewPool(8)},
		"zero mode traced":   {Trace: tr},
	} {
		got, err := Rekey(w.dir, w.msg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reportKey(got), reportKey(want)) {
			t.Errorf("%s: report differs from explicit PerEncryption", name)
		}
	}
	if traceBuf.Len() == 0 {
		t.Error("traced path recorded nothing")
	}

	wantPkt, err := Rekey(w.dir, w.msg, Options{Mode: PerPacket, PacketSize: 25})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"packet size zero":     {Mode: PerPacket},
		"packet size negative": {Mode: PerPacket, PacketSize: -3},
	} {
		got, err := Rekey(w.dir, w.msg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reportKey(got), reportKey(wantPkt)) {
			t.Errorf("%s: report differs from explicit PacketSize 25", name)
		}
	}
}
