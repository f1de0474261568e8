// Package rekeyd runs the paper's rekey protocol over a real
// transport: one key server plus many member nodes exchanging
// internal/wire frames through internal/transport instead of eventsim
// hops. It is the daemon behind `rekeysim -daemon` and the harness the
// chaos fault ladder uses to prove the multicast→unicast→resync
// degradation ladder outside the simulator.
//
// Protocol per rekey interval:
//
//  1. The server FORWARDs the batch rekey message over the T-mesh:
//     level-1 copies to its (0,j)-primary neighbors, each split to the
//     receiver's level-1 subtree (TypeRekey frames). Members forward
//     for rows [level, D-1], splitting with the shared compiled index,
//     and apply their own slice.
//  2. Every member that installs the interval's group key acks
//     (TypeAck). Acks are idempotent; duplicates from rungs racing
//     each other are harmless.
//  3. After Config.Timeout the server climbs the recovery ladder per
//     unacked member: RetryBudget unicast attempts (TypeRekey at
//     forward level D — terminal, never forwarded) spaced by the
//     min(RetryBase<<(n-1), RetryMax) backoff, then ResyncBudget full
//     path-key resyncs (TypeSync) spaced by RetryMax. A member still
//     silent after that is reported dead-in-flight, mirroring
//     recovery.LadderResult semantics.
//
// Nodes share one process (the daemon runs "many in-process user
// nodes over real loopback sockets"), so the overlay Directory and the
// per-interval split index are shared read-only state under Shared;
// everything that crosses nodes as *protocol* crosses the transport
// as bytes.
package rekeyd

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/split"
	"tmesh/internal/transport"
	"tmesh/internal/wire"
	"tmesh/internal/work"
)

// PeerOf maps a member ID to its transport routing key.
func PeerOf(id ident.ID) transport.PeerID { return transport.PeerID(id.Key()) }

// Config tunes the server's delivery ladder.
type Config struct {
	Params ident.Params
	// Timeout is the post-multicast ack wait before the ladder starts.
	Timeout time.Duration
	// RetryBase/RetryMax/RetryBudget shape the unicast rung exactly
	// like recovery.LadderConfig.
	RetryBase, RetryMax time.Duration
	RetryBudget         int
	// ResyncBudget bounds the resync rung's retransmissions (spaced by
	// RetryMax); the ladder must terminate even against a peer that
	// never comes back — it surfaces as dead-in-flight instead of a
	// hang.
	ResyncBudget int
	// SplitParallelism is the width of the work.Pool the compiled split
	// index is built on (values < 1 mean 1).
	SplitParallelism int
	// Obs receives daemon counters (nil-safe).
	Obs *obs.Registry
}

func (c *Config) fill() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Timeout <= 0 {
		c.Timeout = 500 * time.Millisecond
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryMax < c.RetryBase {
		c.RetryMax = 4 * c.RetryBase
	}
	if c.RetryBudget < 1 {
		c.RetryBudget = 3
	}
	if c.ResyncBudget < 1 {
		c.ResyncBudget = 5
	}
	if c.SplitParallelism < 1 {
		c.SplitParallelism = 1
	}
	return nil
}

// backoff is the ladder's unicast spacing: min(RetryBase<<(n-1),
// RetryMax), guarded against shift overflow like recovery's.
func (c *Config) backoff(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := c.RetryBase
	if shift := attempt - 1; shift < 63 {
		d = c.RetryBase << shift
	} else {
		d = c.RetryMax
	}
	if d > c.RetryMax || d <= 0 {
		d = c.RetryMax
	}
	return d
}

// Shared is the in-process state nodes read and the driver writes: the
// overlay directory (not concurrency-safe on its own) behind an
// RWMutex, the liveness oracle the FORWARD primaries consult, and the
// per-interval compiled split index. The index is derived, read-only
// data — split monotonicity makes sharing the server-built index at
// every forwarding node byte-identical to re-splitting per hop.
type Shared struct {
	mu    sync.RWMutex
	dir   *overlay.Directory
	alive func(ident.ID) bool

	idxMu   sync.RWMutex
	indexes map[uint64]*split.Index
}

// NewShared wraps a directory for concurrent node access.
func NewShared(dir *overlay.Directory) *Shared {
	return &Shared{dir: dir, indexes: make(map[uint64]*split.Index)}
}

// SetAlive installs the liveness oracle used when picking forwarding
// primaries (the driver's view of killed peers). May be nil.
func (s *Shared) SetAlive(f func(ident.ID) bool) {
	s.mu.Lock()
	s.alive = f
	s.mu.Unlock()
}

// Read runs f holding the directory read lock.
func (s *Shared) Read(f func(dir *overlay.Directory)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f(s.dir)
}

// Write runs f holding the directory write lock (driver-side churn).
func (s *Shared) Write(f func(dir *overlay.Directory)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s.dir)
}

// PutIndex registers the compiled split index for an interval and
// drops indexes more than two intervals old.
func (s *Shared) PutIndex(interval uint64, idx *split.Index) {
	s.idxMu.Lock()
	s.indexes[interval] = idx
	for k := range s.indexes {
		if k+2 < interval {
			delete(s.indexes, k)
		}
	}
	s.idxMu.Unlock()
}

// Index returns the interval's compiled index, nil if unknown.
func (s *Shared) Index(interval uint64) *split.Index {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return s.indexes[interval]
}

// splitFor filters encs to a subtree through the compiled index when
// one exists, falling back to the legacy linear filter.
func (s *Shared) splitFor(interval uint64, encs []keycrypt.Encryption, subtree ident.Prefix) []keycrypt.Encryption {
	if idx := s.Index(interval); idx != nil {
		return idx.Split(encs, subtree)
	}
	return split.Filter(encs, subtree)
}

// Member is one user node: a keyring, a transport endpoint, and the
// FORWARD duty for its rows of the T-mesh.
type Member struct {
	id     ident.ID
	params ident.Params
	tr     transport.Transport
	sh     *Shared

	mu      sync.Mutex
	kr      *keytree.Keyring
	applied uint64
	copies  map[uint64]int // rekey copies received, per interval

	applies, forwards, reacks, applyErrs, resyncs *obs.Counter
}

// NewMember wraps a transport endpoint as a member node holding the
// given keyring (its join-time path keys). appliedInterval is the
// interval whose keys the keyring already reflects: a node joining in
// interval i receives interval-i keys out of band (the paper's
// reliable join unicast), so it acks interval i without applying.
func NewMember(id ident.ID, params ident.Params, tr transport.Transport, sh *Shared, kr *keytree.Keyring, appliedInterval uint64, reg *obs.Registry) *Member {
	m := &Member{
		id: id, params: params, tr: tr, sh: sh,
		kr: kr, applied: appliedInterval,
		copies:    make(map[uint64]int),
		applies:   reg.Counter("rekeyd_member_applies"),
		forwards:  reg.Counter("rekeyd_member_forwards"),
		reacks:    reg.Counter("rekeyd_member_reacks"),
		applyErrs: reg.Counter("rekeyd_member_apply_errors"),
		resyncs:   reg.Counter("rekeyd_member_resyncs"),
	}
	tr.SetHandler(m.handle)
	return m
}

// ID returns the member's tree ID.
func (m *Member) ID() ident.ID { return m.id }

// GroupKey returns the member's current group key.
func (m *Member) GroupKey() (keycrypt.Key, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.kr.GroupKey()
}

// Applied returns the newest interval whose keys are installed.
func (m *Member) Applied() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applied
}

func (m *Member) handle(from transport.PeerID, frame []byte) {
	if len(frame) == 0 {
		return
	}
	switch wire.MsgType(frame[0]) {
	case wire.TypeRekey:
		msg, level, err := wire.UnmarshalRekey(frame)
		if err != nil {
			return
		}
		m.onRekey(msg, level)
	case wire.TypeSync:
		interval, path, err := wire.UnmarshalSync(frame)
		if err != nil {
			return
		}
		m.onSync(interval, path)
	}
}

// CopiesOf reports how many rekey copies arrived for an interval —
// the socket-side evidence for Theorem 1's exactly-one-copy claim in
// fault-free intervals (recovery rungs legitimately add copies).
func (m *Member) CopiesOf(interval uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.copies[interval]
}

func (m *Member) onRekey(msg *keytree.Message, level int) {
	if level < m.params.Digits {
		m.forward(msg, level)
	}
	m.mu.Lock()
	m.copies[msg.Interval]++
	for k := range m.copies {
		if k+4 < msg.Interval {
			delete(m.copies, k)
		}
	}
	if msg.Interval <= m.applied {
		applied := m.applied
		m.mu.Unlock()
		// Duplicate (Theorem 1's fault-tolerant redundancy, or a
		// ladder rung racing a slow ack): re-ack, don't re-apply.
		m.reacks.Inc()
		m.ack(applied)
		return
	}
	if _, err := m.kr.Apply(msg); err != nil {
		// A missing or stale KEK: this keyring skipped an interval
		// the message assumes. No ack — the server's ladder will
		// reach the resync rung and rebuild the path.
		m.mu.Unlock()
		m.applyErrs.Inc()
		return
	}
	m.applied = msg.Interval
	m.mu.Unlock()
	m.applies.Inc()
	m.ack(msg.Interval)
}

func (m *Member) onSync(interval uint64, path []keytree.PathKey) {
	m.mu.Lock()
	if interval <= m.applied {
		applied := m.applied
		m.mu.Unlock()
		m.reacks.Inc()
		m.ack(applied)
		return
	}
	kr, err := keytree.NewKeyring(m.params, m.id, path)
	if err != nil {
		m.mu.Unlock()
		m.applyErrs.Inc()
		return
	}
	m.kr = kr
	m.applied = interval
	m.mu.Unlock()
	m.resyncs.Inc()
	m.ack(interval)
}

func (m *Member) ack(interval uint64) {
	m.tr.Send(transport.ServerID, wire.MarshalAck(interval, m.id))
}

// forward implements the member half of FORWARD (Section 3.2): for
// each row s in [level, D-1] send one level-(s+1) copy to the (s,j)-
// primary of every non-diagonal column, split to that neighbor's
// (s+1)-digit subtree.
func (m *Member) forward(msg *keytree.Message, level int) {
	type hop struct {
		to      transport.PeerID
		subtree ident.Prefix
		level   int
	}
	var hops []hop
	m.sh.Read(func(dir *overlay.Directory) {
		table, ok := dir.TableOf(m.id)
		if !ok {
			return // evicted mid-interval; nothing to forward from
		}
		alive := m.sh.alive
		for s := level; s < m.params.Digits; s++ {
			own := m.id.Digit(s)
			for j := 0; j < m.params.Base; j++ {
				if ident.Digit(j) == own {
					continue // diagonal: the owner's own subtree
				}
				next, ok := table.Entry(s, ident.Digit(j)).Primary(alive)
				if !ok {
					continue
				}
				hops = append(hops, hop{
					to:      PeerOf(next.ID),
					subtree: next.ID.Prefix(s + 1),
					level:   s + 1,
				})
			}
		}
	})
	for _, h := range hops {
		encs := m.sh.splitFor(msg.Interval, msg.Encryptions, h.subtree)
		if len(encs) == 0 {
			continue // REKEY-MESSAGE-SPLIT: nothing downstream needs it
		}
		buf, err := wire.MarshalRekey(&keytree.Message{Interval: msg.Interval, Encryptions: encs}, h.level)
		if err != nil {
			continue
		}
		if m.tr.Send(h.to, buf) == nil {
			m.forwards.Inc()
		}
	}
}

// Close releases the member's transport endpoint.
func (m *Member) Close() error { return m.tr.Close() }

// Result is one interval's delivery outcome, the socket analogue of
// recovery.LadderResult.
type Result struct {
	Interval uint64
	// Expected is the number of members the server waited on.
	Expected int
	// RungOf records, per member key, the highest ladder rung in
	// flight when its ack arrived.
	RungOf map[string]recovery.Rung
	// DeadInFlight lists members whose ladder ran dry unacked.
	DeadInFlight []ident.ID
	// UnicastAttempts and SyncAttempts count ladder sends.
	UnicastAttempts, SyncAttempts int
	// MaxBackoff is the longest unicast spacing any member's chain
	// reached.
	MaxBackoff time.Duration
}

// Acked reports whether every expected member acked.
func (r *Result) Acked() bool { return len(r.RungOf) == r.Expected }

// Rungs tallies acks per rung.
func (r *Result) Rungs() map[recovery.Rung]int {
	out := make(map[recovery.Rung]int, 3)
	for _, rung := range r.RungOf {
		out[rung]++
	}
	return out
}

// Server is the key-server node: it owns the ack ledger and drives the
// FORWARD start plus the per-member recovery ladder.
type Server struct {
	cfg  Config
	tr   transport.Transport
	sh   *Shared
	tree *keytree.Tree
	pool *work.Pool // compiles each interval's split index

	ackMu   sync.Mutex
	acked   map[uint64]map[string]recovery.Rung // interval -> member -> rung at ack
	rungNow map[uint64]map[string]recovery.Rung // rung currently in flight
	waiters map[uint64]map[string][]chan struct{}

	acks, unicasts, syncsSent, dead *obs.Counter
}

// NewServer wraps the server transport endpoint. The tree stays owned
// by the driver (Mark/Regenerate between intervals); Distribute only
// reads it (PathKeys for resyncs), so the driver must not mutate the
// tree while a Distribute is in flight.
func NewServer(cfg Config, tr transport.Transport, sh *Shared, tree *keytree.Tree) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		tr:        tr,
		sh:        sh,
		tree:      tree,
		pool:      work.NewPool(cfg.SplitParallelism),
		acked:     make(map[uint64]map[string]recovery.Rung),
		rungNow:   make(map[uint64]map[string]recovery.Rung),
		waiters:   make(map[uint64]map[string][]chan struct{}),
		acks:      cfg.Obs.Counter("rekeyd_server_acks"),
		unicasts:  cfg.Obs.Counter("rekeyd_server_unicasts"),
		syncsSent: cfg.Obs.Counter("rekeyd_server_resyncs"),
		dead:      cfg.Obs.Counter("rekeyd_server_dead_in_flight"),
	}
	tr.SetHandler(s.handle)
	return s, nil
}

func (s *Server) handle(from transport.PeerID, frame []byte) {
	if len(frame) == 0 || wire.MsgType(frame[0]) != wire.TypeAck {
		return
	}
	interval, id, err := wire.UnmarshalAck(frame, s.cfg.Params)
	if err != nil {
		return
	}
	key := id.Key()
	s.ackMu.Lock()
	ledger, tracked := s.acked[interval]
	if !tracked {
		s.ackMu.Unlock()
		return // an interval Distribute never opened (stale re-ack)
	}
	if _, dup := ledger[key]; dup {
		s.ackMu.Unlock()
		return
	}
	rung := recovery.ByMulticast
	if r, ok := s.rungNow[interval][key]; ok {
		rung = r
	}
	ledger[key] = rung
	chans := s.waiters[interval][key]
	delete(s.waiters[interval], key)
	s.ackMu.Unlock()
	s.acks.Inc()
	for _, ch := range chans {
		close(ch)
	}
}

// ackChan returns a channel closed when the member acks the interval
// (closed immediately if it already has).
func (s *Server) ackChan(interval uint64, key string) <-chan struct{} {
	ch := make(chan struct{})
	s.ackMu.Lock()
	if _, ok := s.acked[interval][key]; ok {
		s.ackMu.Unlock()
		close(ch)
		return ch
	}
	if s.waiters[interval] == nil {
		s.waiters[interval] = make(map[string][]chan struct{})
	}
	s.waiters[interval][key] = append(s.waiters[interval][key], ch)
	s.ackMu.Unlock()
	return ch
}

func (s *Server) hasAcked(interval uint64, key string) bool {
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	_, ok := s.acked[interval][key]
	return ok
}

func (s *Server) setRung(interval uint64, key string, r recovery.Rung) {
	s.ackMu.Lock()
	if s.rungNow[interval] == nil {
		s.rungNow[interval] = make(map[string]recovery.Rung)
	}
	s.rungNow[interval][key] = r
	s.ackMu.Unlock()
}

// Distribute delivers one interval's rekey message to every member in
// expected, climbing the ladder for stragglers. It blocks until every
// member acked or ran its ladder dry, so it always terminates:
// worst-case per member is Timeout + Σ backoff(RetryBudget) +
// ResyncBudget·RetryMax.
func (s *Server) Distribute(msg *keytree.Message, expected []ident.ID) (*Result, error) {
	if msg == nil {
		return nil, fmt.Errorf("rekeyd: nil rekey message")
	}
	// Compile the split index once, server-side; every forwarding node
	// shares it through Shared (monotonicity makes that byte-identical
	// to per-hop re-splitting).
	var idx *split.Index
	s.sh.Read(func(dir *overlay.Directory) {
		idx = split.NewIndex(dir.Tree(), msg.Encryptions, s.pool, nil)
	})
	s.sh.PutIndex(msg.Interval, idx)

	s.ackMu.Lock()
	if _, dup := s.acked[msg.Interval]; dup {
		s.ackMu.Unlock()
		return nil, fmt.Errorf("rekeyd: interval %d already distributed", msg.Interval)
	}
	s.acked[msg.Interval] = make(map[string]recovery.Rung, len(expected))
	s.ackMu.Unlock()

	// FORWARD start: one level-1 copy per (0,j)-primary, split to the
	// receiver's level-1 subtree.
	type hop struct {
		to      transport.PeerID
		subtree ident.Prefix
	}
	var hops []hop
	s.sh.Read(func(dir *overlay.Directory) {
		alive := s.sh.alive
		for j := 0; j < s.cfg.Params.Base; j++ {
			next, ok := dir.Server().Entry(ident.Digit(j)).Primary(alive)
			if !ok {
				continue
			}
			hops = append(hops, hop{to: PeerOf(next.ID), subtree: next.ID.Prefix(1)})
		}
	})
	for _, h := range hops {
		encs := idx.Split(msg.Encryptions, h.subtree)
		if len(encs) == 0 {
			continue
		}
		buf, err := wire.MarshalRekey(&keytree.Message{Interval: msg.Interval, Encryptions: encs}, 1)
		if err != nil {
			return nil, err
		}
		s.tr.Send(h.to, buf)
	}

	// Wait out the multicast, then ladder the stragglers.
	res := &Result{Interval: msg.Interval, Expected: len(expected)}
	s.waitAll(msg.Interval, expected, s.cfg.Timeout)

	var wg sync.WaitGroup
	var resMu sync.Mutex
	for _, id := range expected {
		if s.hasAcked(msg.Interval, id.Key()) {
			continue
		}
		wg.Add(1)
		go func(id ident.ID) {
			defer wg.Done()
			s.ladder(msg, id, res, &resMu)
		}(id)
	}
	wg.Wait()

	s.ackMu.Lock()
	res.RungOf = make(map[string]recovery.Rung, len(s.acked[msg.Interval]))
	for k, r := range s.acked[msg.Interval] {
		res.RungOf[k] = r
	}
	// Release the waiter bookkeeping for this interval.
	delete(s.waiters, msg.Interval)
	delete(s.rungNow, msg.Interval)
	s.ackMu.Unlock()
	sort.Slice(res.DeadInFlight, func(i, j int) bool {
		return res.DeadInFlight[i].Compare(res.DeadInFlight[j]) < 0
	})
	return res, nil
}

// waitAll blocks until every expected member acked or the timeout
// elapsed.
func (s *Server) waitAll(interval uint64, expected []ident.ID, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for _, id := range expected {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return
		}
		select {
		case <-s.ackChan(interval, id.Key()):
		case <-time.After(remaining):
			return
		}
	}
}

// ladder climbs unicast → resync for one silent member.
func (s *Server) ladder(msg *keytree.Message, id ident.ID, res *Result, resMu *sync.Mutex) {
	key := id.Key()
	// Unicast rung: the member's own slice at terminal forward level D
	// (never forwarded further), retried on the capped exponential
	// schedule.
	slice := recovery.NeededBy(msg, id)
	unicast, err := wire.MarshalRekey(&keytree.Message{Interval: msg.Interval, Encryptions: slice}, s.cfg.Params.Digits)
	if err != nil {
		unicast = nil
	}
	for n := 1; n <= s.cfg.RetryBudget && unicast != nil; n++ {
		s.setRung(msg.Interval, key, recovery.ByUnicast)
		s.tr.Send(PeerOf(id), unicast)
		s.unicasts.Inc()
		d := s.cfg.backoff(n)
		resMu.Lock()
		res.UnicastAttempts++
		if d > res.MaxBackoff {
			res.MaxBackoff = d
		}
		resMu.Unlock()
		select {
		case <-s.ackChan(msg.Interval, key):
			return
		case <-time.After(d):
		}
	}
	// Resync rung: rebuild the member's whole path. PathKeys is a
	// tree read; the driver contract forbids concurrent Mark/
	// Regenerate during Distribute.
	for n := 1; n <= s.cfg.ResyncBudget; n++ {
		path, err := s.tree.PathKeys(id)
		if err != nil {
			break // left/evicted under the ladder: dead in flight
		}
		buf, err := wire.MarshalSync(msg.Interval, path)
		if err != nil {
			break
		}
		s.setRung(msg.Interval, key, recovery.ByResync)
		s.tr.Send(PeerOf(id), buf)
		s.syncsSent.Inc()
		resMu.Lock()
		res.SyncAttempts++
		resMu.Unlock()
		select {
		case <-s.ackChan(msg.Interval, key):
			return
		case <-time.After(s.cfg.RetryMax):
		}
	}
	s.dead.Inc()
	resMu.Lock()
	res.DeadInFlight = append(res.DeadInFlight, id)
	resMu.Unlock()
}

// Close releases the server's transport endpoint.
func (s *Server) Close() error { return s.tr.Close() }
