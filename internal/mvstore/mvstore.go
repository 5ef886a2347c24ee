// Package mvstore is the multi-version storage substrate shared by the
// multi-version concurrency-control engines (HDD Protocols A/B/C, MVTO,
// MV2PL snapshots).
//
// Each granule keeps a chain of versions ordered by write timestamp — in
// this reproduction, the initiation time of the creating transaction, per
// the paper's §4 notation TS(d^v) = I(writer). Versions are installed
// pending, then committed or discarded; committed versions optionally carry
// a read-timestamp register (the thing Protocols A and C avoid touching).
// Watermark-based garbage collection implements the §7.3 maintenance duty.
// The store knows nothing of durability: the engine logs each committed
// write set itself, and checkpoint.go serializes a quiesced store whole.
//
// # Read-path memory model (DESIGN.md §14)
//
// The committed-read entry points (ReadCommittedBefore, ReadCommittedAsOf)
// are wait-free: they take no locks and perform no allocations. A chain
// keeps one array of versions, ts ascending, and publishes it behind one
// atomic pointer to a header {published length, backing array}. A reader
// loads the header and its length, binary-searches [0,len) and steps back
// over slots that are not committed. Below the published length a slot's
// ts is immutable, its state moves once from Pending to Committed by an
// atomic store made after value and commitTS are final, and readTS/done
// are chain.mu-guarded fields no wait-free reader touches. A tail install
// into spare capacity writes the next free slot and then advances the
// length; a commit is the one atomic state store. Everything else that
// changes the chain's shape — abort, a mid-chain insert, prune, capacity
// growth — copies into a fresh header and swaps the pointer, never
// touching the old one, so a reader that loaded the old header keeps a
// consistent view (every commit made before it loaded is in it) and the Go
// runtime reclaims the header once the last such reader drops it: no epoch
// or hazard-pointer machinery is needed.
//
// Chains are found through a flat directory, an insert-only open-addressing
// table a reader probes after one atomic load, with no lock or allocation;
// a create places the chain under a leaf mutex, doubling the table past half
// full. Chains are never removed.
//
// Ownership: the store keeps the value slice it is given and never writes
// to it. Engines make the one copy of a written value at cc.Txn.Write, as of
// a read value at cc.Txn.Read; values returned by every read path alias that
// immutable memory (the wire server uses the shared slice directly). A
// pending version has a done channel only once a Protocol B reader waits.
package mvstore

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"

	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// State is a version's lifecycle state.
type State uint8

const (
	// Pending versions are installed by an active transaction; invisible
	// to committed-read paths.
	Pending State = iota
	// Committed versions are visible.
	Committed
)

// version is one entry in a granule's chain. Wait-free readers see ts,
// state, commitTS and value; readTS and done belong to chain.mu.
type version struct {
	ts    vclock.Time // write timestamp = writer's initiation time
	value []byte
	// state holds a State. A plain word, not an atomic type, because splice
	// copies versions wholesale under chain.mu; the commit store and every
	// wait-free load go through atomic.StoreUint32/LoadUint32.
	state uint32
	// commitTS is the instant the version committed (set by CommitAt;
	// zero when committed via Commit). Commit-time visibility is what the
	// MV2PL baseline snapshots by; the HDD protocols never consult it.
	commitTS vclock.Time
	// readTS is the largest read timestamp registered against this
	// version (Protocol B / MVTO bookkeeping). Zero if never registered.
	readTS vclock.Time
	// done is made by the first registered reader that waits for the
	// version and closed when it leaves Pending; nil otherwise.
	done chan struct{}
}

// committed reports whether v is visible to committed reads. Safe without
// chain.mu: it pairs with the atomic store in commitAt.
func (v *version) committed() bool {
	return State(atomic.LoadUint32(&v.state)) == Committed
}

// VersionInfo is an exported snapshot of one version, for diagnostics and
// tests.
type VersionInfo struct {
	TS     vclock.Time
	State  State
	ReadTS vclock.Time
	Len    int
}

// header is what a chain publishes: a backing array and how much of it is
// in use. vers[:n] is the chain, ts ascending; vers[n:] is spare capacity
// only the mutator holding chain.mu writes.
type header struct {
	n    atomic.Int64
	vers []version
}

// inline is a header and its array in one object.
type inline[A any] struct {
	header
	arr A
}

// newHeader returns an empty header with room for capacity versions; the
// small capacities that hold most chains are one object.
func newHeader(capacity int) *header {
	switch capacity {
	case 1:
		b := new(inline[[1]version])
		b.vers = b.arr[:]
		return &b.header
	case 2:
		b := new(inline[[2]version])
		b.vers = b.arr[:]
		return &b.header
	}
	return &header{vers: make([]version, capacity)}
}

type chain struct {
	// mu serializes mutators (install/commit/abort/update/prune) and the
	// registered Protocol B read path. The wait-free committed-read paths
	// never take it.
	mu sync.Mutex
	// head is the published chain; nil until the first install. Aborted
	// versions are removed.
	head atomic.Pointer[header]
	// initRTS is the largest read timestamp registered against the
	// *initial* (absent) version of the granule. A registered read that
	// found nothing must still block an older writer from creating the
	// first version afterwards, or a same-class reader/writer pair can
	// cycle.
	initRTS vclock.Time
	// next links the prune queue, or a list a GC pass detached from it;
	// non-nil exactly while the chain is queued. Guarded by mu.
	next *chain
	// g is the granule the chain belongs to: the directory's key.
	g schema.GranuleID
}

// queueEnd ends every prune-queue list. Without a queued flag a chain is 48
// bytes, a size class the churning values and headers do not share.
var queueEnd = new(chain)

// view returns the published chain. Without c.mu, only ts and — once
// version.committed says so — value and commitTS may be read from it.
func (c *chain) view() []version {
	h := c.head.Load()
	if h == nil {
		return nil
	}
	return h.vers[:h.n.Load()]
}

// locate returns the index of the latest version in vs with ts < bound, or
// -1.
func locate(vs []version, bound vclock.Time) int {
	return vclock.Locate(len(vs), func(i int) vclock.Time { return vs[i].ts }, bound)
}

// latestCommitted returns the index of the latest committed version in vs
// with ts < bound, or -1. It examines each slot once, top down, so what it
// returns was committed when examined and everything it stepped over was
// unresolved when examined. That is the latest committed version as of one
// instant unless two versions below bound commit, out of chain order, during
// the call — which no engine's bounds allow (Protocol A/C bounds lie below
// every active writer of the segment; MV2PL reads under strict 2PL).
func latestCommitted(vs []version, bound vclock.Time) int {
	i := locate(vs, bound)
	for i >= 0 && !vs[i].committed() {
		i--
	}
	return i
}

// splice publishes a fresh header holding vs[:lo], then ins if non-nil,
// then vs[hi:]. A chain that grows doubles its capacity, so tail installs
// are amortised O(1); one that shrinks (prune, abort) is cut to fit, so the
// idle chains that make up most of a store carry no spare slots. Callers
// must hold c.mu (or own the store exclusively during recovery).
func (c *chain) splice(vs []version, lo, hi int, ins *version) {
	live := len(vs) - (hi - lo)
	capacity := live
	if ins != nil {
		live++
		capacity = max(live, 2*capacity)
	}
	h := newHeader(capacity)
	n := copy(h.vers, vs[:lo])
	if ins != nil {
		h.vers[n] = *ins
		n++
	}
	n += copy(h.vers[n:], vs[hi:])
	h.n.Store(int64(n))
	c.head.Store(h)
}

// insert places a new pending version at index at of the published chain
// vs. The common case — the chain's tail, with spare capacity — writes the
// next free slot and advances the published length; anything else
// republishes. The version keeps value. Callers must hold c.mu.
func (c *chain) insert(vs []version, at int, ts vclock.Time, value []byte) {
	v := version{ts: ts, value: value}
	if h := c.head.Load(); h != nil && at == len(vs) && at < len(h.vers) {
		h.vers[at] = v // spare capacity: no reader indexes it yet
		h.n.Store(int64(at + 1))
		return
	}
	c.splice(vs, at, at, &v)
}

// Store is a sharded multi-version key/value store. It is safe for
// concurrent use.
type Store struct {
	// chains is the directory: a power-of-two table, at most half full,
	// that only gains chains; createMu serializes creates and guards
	// nchains. A reader holding a replaced table finds every chain created
	// before it loaded that table: growing copies them.
	chains   atomic.Pointer[[]atomic.Pointer[chain]]
	createMu sync.Mutex
	nchains  int

	// prunable is the prune queue: a lock-free stack of the chains a GC
	// pass could shrink, linked through chain.next. Pushes happen under the
	// pushed chain's mu (enqueue); GC detaches the whole list with one swap.
	prunable atomic.Pointer[chain]

	// Stats, maintained atomically.
	versionsInstalled atomic.Int64
	versionsAborted   atomic.Int64
	versionsPruned    atomic.Int64
	readRegistrations atomic.Int64
}

// enqueue puts c on the prune queue unless it is there already. Callers
// must hold c.mu (or own the store exclusively during recovery). The queue
// invariant is that every chain a GC pass could shrink is queued. Shrinking
// takes two committed versions; the later of the two commits (or the
// checkpoint load) found the chain holding two versions and queued it, and
// only GC dequeues.
func (s *Store) enqueue(c *chain) {
	if c.next != nil { // queued already
		return
	}
	for {
		head := s.prunable.Load()
		c.next = cmp.Or(head, queueEnd)
		if s.prunable.CompareAndSwap(head, c) {
			return
		}
	}
}

// New returns an empty Store.
func New() *Store {
	s, t := &Store{}, make([]atomic.Pointer[chain], 16)
	s.chains.Store(&t)
	return s
}

// probe returns the index of g's slot in t and what the probe loaded
// there: g's chain, or nil for the empty slot where its chain goes. Probes
// run linearly from g's hash. The chain is returned rather than loaded
// again by the caller: a concurrent create may fill the empty slot with
// another granule's chain in between.
func probe(t []atomic.Pointer[chain], g schema.GranuleID) (int, *chain) {
	h := (g.Key ^ uint64(g.Segment)<<48) * 0x9e3779b97f4a7c15
	i := int(h^h>>29) & (len(t) - 1)
	c := t[i].Load()
	for c != nil && c.g != g {
		i = (i + 1) & (len(t) - 1)
		c = t[i].Load()
	}
	return i, c
}

// chainOf returns g's chain, creating it if create is set (nil if it does
// not exist and create is not). A lookup is one atomic load and a probe.
func (s *Store) chainOf(g schema.GranuleID, create bool) *chain {
	t := *s.chains.Load()
	if _, c := probe(t, g); c != nil || !create {
		return c
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	t = *s.chains.Load()
	i, c := probe(t, g)
	if c != nil {
		return c
	}
	c = &chain{g: g}
	if s.nchains++; 2*s.nchains <= len(t) {
		t[i].Store(c)
		return c
	}
	grown := make([]atomic.Pointer[chain], 2*len(t))
	s.each(func(old *chain) {
		j, _ := probe(grown, old.g)
		grown[j].Store(old)
	})
	j, _ := probe(grown, g)
	grown[j].Store(c)
	s.chains.Store(&grown)
	return c
}

// each calls f for every chain in the published directory.
func (s *Store) each(f func(*chain)) {
	t := *s.chains.Load()
	for i := range t {
		if c := t[i].Load(); c != nil {
			f(c)
		}
	}
}

// ErrVersionExists is returned when installing a version whose timestamp is
// already present in the chain (one write per granule per transaction is
// the unit of versioning; engines buffer intra-transaction overwrites).
var ErrVersionExists = fmt.Errorf("mvstore: version with this timestamp already exists")

// InstallPending adds a pending version of g with write timestamp ts.
func (s *Store) InstallPending(g schema.GranuleID, ts vclock.Time, value []byte) error {
	c := s.chainOf(g, true)
	c.mu.Lock()
	defer c.mu.Unlock()
	vs := c.view()
	i := locate(vs, ts+1)
	if i >= 0 && vs[i].ts == ts {
		return ErrVersionExists
	}
	c.insert(vs, i+1, ts, value)
	s.versionsInstalled.Add(1)
	return nil
}

// commitAt flips the pending version of g at ts to Committed with the
// given commit instant (zero when commit time is untracked) — the shared
// body of Commit and CommitAt. The flip is one atomic store into the
// published array; it allocates nothing.
func (s *Store) commitAt(g schema.GranuleID, ts, commitTS vclock.Time) {
	c := s.chainOf(g, false)
	if c == nil {
		panic(fmt.Sprintf("mvstore: commit of unknown granule %v", g))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	vs := c.view()
	i := locate(vs, ts+1)
	if i < 0 || vs[i].ts != ts || vs[i].committed() {
		panic(fmt.Sprintf("mvstore: commit of missing pending version %v@%d", g, ts))
	}
	vs[i].commitTS = commitTS
	atomic.StoreUint32(&vs[i].state, uint32(Committed))
	if vs[i].done != nil {
		close(vs[i].done)
		vs[i].done = nil
	}
	if len(vs) >= 2 {
		s.enqueue(c)
	}
}

// Commit flips the pending version of g at ts to Committed.
func (s *Store) Commit(g schema.GranuleID, ts vclock.Time) {
	s.commitAt(g, ts, 0)
}

// CommitAt flips the pending version of g at ts to Committed, stamping it
// with the given commit instant. Engines whose readers snapshot by commit
// time (MV2PL) use this in place of Commit.
func (s *Store) CommitAt(g schema.GranuleID, ts, commitTS vclock.Time) {
	s.commitAt(g, ts, commitTS)
}

// ReadCommittedAsOf returns the latest version of g committed strictly
// before the given commit instant — the MV2PL read-only snapshot rule. It
// requires versions to have been committed with CommitAt and relies on
// per-granule commit order matching chain order, which strict 2PL
// guarantees (exclusive locks serialize writers of a granule).
//
// Wait-free: no locks, no allocations. The returned value aliases
// immutable store memory and must not be modified.
func (s *Store) ReadCommittedAsOf(g schema.GranuleID, commitBound vclock.Time) (value []byte, ts vclock.Time, ok bool) {
	c := s.chainOf(g, false)
	if c == nil {
		return nil, 0, false
	}
	vs := c.view()
	for i := len(vs) - 1; i >= 0; i-- {
		if v := &vs[i]; v.committed() && v.commitTS < commitBound {
			return v.value, v.ts, true
		}
	}
	return nil, 0, false
}

// Abort removes the pending version of g at ts.
func (s *Store) Abort(g schema.GranuleID, ts vclock.Time) {
	c := s.chainOf(g, false)
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	vs := c.view()
	i := locate(vs, ts+1)
	if i < 0 || vs[i].ts != ts || vs[i].committed() {
		return
	}
	if vs[i].done != nil {
		close(vs[i].done)
	}
	c.splice(vs, i, i+1, nil)
	s.versionsAborted.Add(1)
}

// ReadCommittedBefore returns the value and timestamp of the latest
// committed version of g with ts < bound. It never blocks and never
// registers the read — this is the access path of Protocols A and C, whose
// whole point (§4.2, §5.2) is that it mutates nothing. It is wait-free all
// the way down: the chain directory lookup and the header load take no
// locks, and the binary search allocates nothing.
//
// The returned value aliases immutable store memory and must not be
// modified (see the package comment's read-path memory model).
//
// ok is false if no committed version precedes bound (the granule is
// unwritten as of the bound — engines surface this as "not found").
func (s *Store) ReadCommittedBefore(g schema.GranuleID, bound vclock.Time) (value []byte, ts vclock.Time, ok bool) {
	c := s.chainOf(g, false)
	if c == nil {
		return nil, 0, false
	}
	vs := c.view()
	i := latestCommitted(vs, bound)
	if i < 0 {
		return nil, 0, false
	}
	return vs[i].value, vs[i].ts, true
}

// ReadRegistered performs an MVTO read (Protocol B): it returns the latest
// version of g with ts < bound, waiting for that version to resolve if it
// is still pending (wait-for-commit MVTO avoids cascading aborts), and
// registers the reader's timestamp against the version it returns.
//
// The returned wait channel is nil when the read completed immediately;
// otherwise the caller must wait until the channel is closed (the pending
// version resolved) and then retry. Exposing the channel rather than a
// blocking call makes the wait *cancellable*: callers can select against a
// deadline timer or an engine-shutdown channel and give up instead of
// blocking forever on an abandoned writer. ts reports the pending version's
// write timestamp so callers with non-age-ordered bounds (basic TO's
// "latest version" reads) can reject a read-too-late instead of waiting —
// waiting on a *younger* pending writer can deadlock, since that writer's
// own reads may be waiting the other way. This two-phase shape also lets
// engines count blocked reads — a quantity the experiments report —
// without holding chain locks across waits.
//
// The returned value aliases immutable store memory and must not be
// modified (registration mutates the chain's read-timestamp register, but
// never a value).
func (s *Store) ReadRegistered(g schema.GranuleID, bound, readerTS vclock.Time) (value []byte, ts vclock.Time, ok bool, wait <-chan struct{}) {
	c := s.chainOf(g, true)
	c.mu.Lock()
	vs := c.view()
	i := locate(vs, bound)
	if i < 0 {
		if readerTS > c.initRTS {
			c.initRTS = readerTS
			s.readRegistrations.Add(1)
		}
		c.mu.Unlock()
		return nil, 0, false, nil
	}
	v := &vs[i]
	if !v.committed() {
		if v.done == nil {
			v.done = make(chan struct{})
		}
		done := v.done
		pendingTS := v.ts
		c.mu.Unlock()
		return nil, pendingTS, false, done
	}
	if readerTS > v.readTS {
		v.readTS = readerTS
		s.readRegistrations.Add(1)
	}
	val, vts := v.value, v.ts
	c.mu.Unlock()
	return val, vts, true, nil
}

// admitWrite validates a write at writerTS against the chain, per Reed'78
// as adopted by Protocol B:
//
//   - if the predecessor version (latest with ts < writerTS) has a
//     registered read timestamp > writerTS, the write must be rejected —
//     some later reader already read the predecessor, and interposing this
//     version would invalidate that read;
//   - a version already present at exactly writerTS is ErrVersionExists;
//   - if any version (committed or pending) with ts > writerTS exists, the
//     write is also rejected ("too late"): this store keeps the exactness
//     of the §2 dependency graph rather than applying the Thomas write
//     rule.
//
// It returns nil if the write is admissible, which implies writerTS orders
// after every version in vs, the chain's view (an admissible install
// appends). Callers must hold c.mu.
func (c *chain) admitWrite(vs []version, g schema.GranuleID, writerTS vclock.Time) error {
	i := locate(vs, writerTS)
	if i >= 0 && vs[i].readTS > writerTS {
		return &RejectedError{Granule: g, WriterTS: writerTS, ReadTS: vs[i].readTS, Reason: "predecessor read by a later transaction"}
	}
	if i < 0 && c.initRTS > writerTS {
		return &RejectedError{Granule: g, WriterTS: writerTS, ReadTS: c.initRTS, Reason: "initial version read by a later transaction"}
	}
	if i+1 < len(vs) {
		if vs[i+1].ts == writerTS {
			return ErrVersionExists
		}
		return &RejectedError{Granule: g, WriterTS: writerTS, Reason: "a newer version already exists"}
	}
	return nil
}

// InstallChecked validates an MVTO write at writerTS against g's chain
// (admitWrite) and, if admissible, installs a pending version — the write
// path of Protocol B and MVTO. Check and install share one critical
// section: split, they would let a concurrent reader register a read
// between them, and the engines' conflict accounting would not be exact.
func (s *Store) InstallChecked(g schema.GranuleID, writerTS vclock.Time, value []byte) error {
	c := s.chainOf(g, true)
	c.mu.Lock()
	defer c.mu.Unlock()
	vs := c.view()
	if err := c.admitWrite(vs, g, writerTS); err != nil {
		return err
	}
	c.insert(vs, len(vs), writerTS, value)
	s.versionsInstalled.Add(1)
	return nil
}

// UpdatePending replaces the value of the pending version of g at ts —
// a transaction overwriting its own earlier write. It panics if no such
// pending version exists (engines only call it for granules they installed).
// The version keeps value in place of its previous slice; the previous
// bytes are never written over, preserving the immutability of anything a
// reader may already hold.
func (s *Store) UpdatePending(g schema.GranuleID, ts vclock.Time, value []byte) {
	c := s.chainOf(g, false)
	if c == nil {
		panic(fmt.Sprintf("mvstore: update of unknown granule %v", g))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	vs := c.view()
	i := locate(vs, ts+1)
	if i < 0 || vs[i].ts != ts || vs[i].committed() {
		panic(fmt.Sprintf("mvstore: update of missing pending version %v@%d", g, ts))
	}
	vs[i].value = value
}

// RejectedError reports an MVTO write rejection.
type RejectedError struct {
	Granule  schema.GranuleID
	WriterTS vclock.Time
	ReadTS   vclock.Time
	Reason   string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("mvstore: write of %v at %d rejected: %s", e.Granule, e.WriterTS, e.Reason)
}

// GC prunes every chain against the watermark: all versions with
// ts < watermark are dropped except the latest committed one, which remains
// readable for bounds at or below the watermark. It returns the number of
// versions pruned. Callers must choose watermarks no later than any bound a
// future read may use (the HDD engine uses the minimum of all active
// initiation times and the released time wall).
func (s *Store) GC(watermark vclock.Time) int {
	pruned, _ := s.Prune(watermark)
	return pruned
}

// Prune is GC that also reports how many chains the pass visited. It
// visits the prune queue, not the store: by the queue invariant (enqueue)
// no other chain can shrink, so the result is what a sweep of every chain
// would produce at a cost proportional to the chains written since the
// watermark last passed them. A visited chain that still holds two or more
// versions goes back on the queue.
//
// Reclamation only swaps headers: a pruned chain publishes a fresh, shorter
// array, while the one a concurrent reader already loaded stays intact
// (and correct — the watermark rule guarantees no future bound reaches
// below it) until the runtime collects it. Concurrent passes are safe: each
// detaches its own list, and takes one chain.mu at a time.
func (s *Store) Prune(watermark vclock.Time) (pruned, visited int) {
	var next *chain
	for c := s.prunable.Swap(nil); c != nil && c != queueEnd; c = next {
		visited++
		c.mu.Lock()
		next, c.next = c.next, nil
		vs := c.view()
		// Keep the latest committed version below the watermark; drop the
		// committed versions before it. Pending versions below keep cannot
		// exist with a correct watermark (their writers would still be
		// active); guard anyway by only dropping a committed prefix.
		keep := latestCommitted(vs, watermark)
		cut := 0
		for cut < keep && vs[cut].committed() {
			cut++
		}
		if cut > 0 {
			c.splice(vs, 0, cut, nil)
			pruned += cut
		}
		if len(vs)-cut >= 2 {
			s.enqueue(c)
		}
		c.mu.Unlock()
	}
	s.versionsPruned.Add(int64(pruned))
	return pruned, visited
}

// Versions returns a snapshot of g's chain for tests and diagnostics.
func (s *Store) Versions(g schema.GranuleID) []VersionInfo {
	c := s.chainOf(g, false)
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	vs := c.view()
	out := make([]VersionInfo, len(vs))
	for i := range vs {
		v := &vs[i]
		out[i] = VersionInfo{TS: v.ts, State: State(v.state), ReadTS: v.readTS, Len: len(v.value)}
	}
	return out
}

// Stats reports cumulative store counters.
type Stats struct {
	VersionsInstalled int64
	VersionsAborted   int64
	VersionsPruned    int64
	ReadRegistrations int64
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		VersionsInstalled: s.versionsInstalled.Load(),
		VersionsAborted:   s.versionsAborted.Load(),
		VersionsPruned:    s.versionsPruned.Load(),
		ReadRegistrations: s.readRegistrations.Load(),
	}
}

// TotalVersions counts retained versions across all granules (O(n); for
// tests and the GC ablation experiment). It traverses the published
// directory and reads each chain's published length.
func (s *Store) TotalVersions() int {
	total := 0
	s.each(func(c *chain) { total += len(c.view()) })
	return total
}
