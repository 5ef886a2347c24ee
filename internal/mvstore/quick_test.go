package mvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// opScript is a quick-generated random operation sequence over one store.
type opScript struct {
	ops []scriptOp
}

type scriptOp struct {
	kind     uint8 // 0 install+commit, 1 install+abort, 2 readBefore, 3 readRegistered, 4 gc
	granule  uint8
	ts       uint16
	value    byte
	bound    uint16
	readerTS uint16
}

// Generate implements quick.Generator.
func (opScript) Generate(r *rand.Rand, size int) reflect.Value {
	n := 10 + r.Intn(size*4+1)
	s := opScript{ops: make([]scriptOp, n)}
	for i := range s.ops {
		s.ops[i] = scriptOp{
			kind:     uint8(r.Intn(5)),
			granule:  uint8(r.Intn(6)),
			ts:       uint16(1 + r.Intn(500)),
			value:    byte(r.Intn(256)),
			bound:    uint16(1 + r.Intn(600)),
			readerTS: uint16(1 + r.Intn(600)),
		}
	}
	return reflect.ValueOf(s)
}

// TestQuickStoreInvariants: after any random operation sequence,
//
//  1. every chain is strictly ordered by timestamp,
//  2. no pending version survives (every install was resolved),
//  3. ReadCommittedBefore(bound) returns the maximal committed version
//     below bound (cross-checked against a model map),
//  4. a registered read timestamp is never below the version's own ts
//     unless it was registered by an older reader (rts can be anything
//     ≥ 0, but never decreases).
func TestQuickStoreInvariants(t *testing.T) {
	f := func(script opScript) bool {
		s := New()
		// model[g] = committed (ts, value) pairs.
		model := map[uint8]map[vclock.Time]byte{}
		for _, op := range script.ops {
			g := schema.GranuleID{Segment: 0, Key: uint64(op.granule)}
			ts := vclock.Time(op.ts)
			switch op.kind {
			case 0, 1:
				if err := s.InstallChecked(g, ts, []byte{op.value}); err != nil {
					continue // rejected: model unchanged
				}
				if op.kind == 0 {
					s.Commit(g, ts)
					if model[op.granule] == nil {
						model[op.granule] = map[vclock.Time]byte{}
					}
					model[op.granule][ts] = op.value
				} else {
					s.Abort(g, ts)
				}
			case 2:
				s.ReadCommittedBefore(g, vclock.Time(op.bound))
			case 3:
				// No pending versions exist between installs (they are
				// resolved immediately), so this never blocks.
				_, _, _, wait := s.ReadRegistered(g, vclock.Time(op.bound), vclock.Time(op.readerTS))
				if wait != nil {
					return false
				}
			case 4:
				// GC at a low watermark is always safe; emulate the
				// "keep latest below watermark" contract in the model by
				// not GC-ing the model (reads at bounds ≥ watermark must
				// still agree). Use a small watermark to keep it valid.
				s.GC(vclock.Time(op.bound) / 4)
				for gid, vs := range model {
					// Drop model versions strictly older than the kept one.
					w := vclock.Time(op.bound) / 4
					var keep vclock.Time = -1
					for ts := range vs {
						if ts < w && ts > keep {
							keep = ts
						}
					}
					for ts := range vs {
						if ts < keep {
							delete(model[gid], ts)
						}
					}
				}
			}
		}
		// Invariants.
		for gk := uint8(0); gk < 6; gk++ {
			g := schema.GranuleID{Segment: 0, Key: uint64(gk)}
			vs := s.Versions(g)
			for i := range vs {
				if vs[i].State != Committed {
					return false // pending survived
				}
				if i > 0 && vs[i-1].TS >= vs[i].TS {
					return false // out of order
				}
			}
			// Cross-check reads at every interesting bound.
			for _, bound := range []vclock.Time{1, 64, 200, 400, 601} {
				gotV, gotTS, gotOK := s.ReadCommittedBefore(g, bound)
				var wantTS vclock.Time = -1
				var wantV byte
				for ts, val := range model[gk] {
					if ts < bound && ts > wantTS {
						wantTS, wantV = ts, val
					}
				}
				if gotOK != (wantTS >= 0) {
					return false
				}
				if gotOK && (gotTS != wantTS || !bytes.Equal(gotV, []byte{wantV})) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refVersion and refChain are the reference the model test compares the
// store against: a plain sorted slice per granule, pruned by visiting every
// chain — the whole-store sweep the prune queue replaces.
type refVersion struct {
	ts, commitTS, readTS vclock.Time
	value                []byte
	committed            bool
}

type refChain struct {
	vers    []refVersion
	initRTS vclock.Time
}

// at returns the index of the latest version with ts < bound, or -1.
func (c *refChain) at(bound vclock.Time) int {
	i := -1
	for j, v := range c.vers {
		if v.ts < bound {
			i = j
		}
	}
	return i
}

// latestCommitted returns the index of the latest committed version with
// ts < bound, or -1.
func (c *refChain) latestCommitted(bound vclock.Time) int {
	i := c.at(bound)
	for i >= 0 && !c.vers[i].committed {
		i--
	}
	return i
}

func (c *refChain) insert(ts vclock.Time, value []byte) {
	i := c.at(ts) + 1
	c.vers = append(c.vers, refVersion{})
	copy(c.vers[i+1:], c.vers[i:])
	c.vers[i] = refVersion{ts: ts, value: append([]byte(nil), value...)}
}

// admits restates the Protocol B write rule (Store.InstallChecked) and reports
// whether a write at ts is admissible.
func (c *refChain) admits(ts vclock.Time) bool {
	i := c.at(ts)
	if i >= 0 && c.vers[i].readTS > ts {
		return false
	}
	if i < 0 && c.initRTS > ts {
		return false
	}
	return i+1 == len(c.vers)
}

// prune applies the GC rule to one chain and returns how many versions it
// dropped.
func (c *refChain) prune(watermark vclock.Time) int {
	keep := c.latestCommitted(watermark)
	cut := 0
	for cut < keep && c.vers[cut].committed {
		cut++
	}
	c.vers = c.vers[cut:]
	return cut
}

// pending returns the indexes of the chain's pending versions.
func (c *refChain) pending() []int {
	var out []int
	for i, v := range c.vers {
		if !v.committed {
			out = append(out, i)
		}
	}
	return out
}

// queuedChains walks the store's prune queue. Only meaningful while no
// other goroutine uses the store.
func queuedChains(s *Store) map[*chain]bool {
	q := map[*chain]bool{}
	for c := s.prunable.Load(); c != nil && c != queueEnd; c = c.next {
		q[c] = true
	}
	return q
}

// TestQuickModelAgainstFullSweep drives random operation sequences — tail
// and mid-chain installs, checked installs, own-write overwrites, commits
// and aborts of pending versions in any order, registered reads, GC at
// random watermarks, checkpoint round trips — through the store and the
// reference, and after every step compares every chain, wait-free and
// registered reads at random bounds, GC's return value, TotalVersions and
// the prune-queue invariant.
func TestQuickModelAgainstFullSweep(t *testing.T) {
	const granules = 5
	gid := func(k int) schema.GranuleID { return schema.GranuleID{Segment: 0, Key: uint64(k)} }
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := New()
		ref := make([]refChain, granules)
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		for step := 0; step < 400; step++ {
			k := r.Intn(granules)
			g, c := gid(k), &ref[k]
			ts := vclock.Time(1 + r.Intn(300))
			val := []byte{byte(r.Intn(256)), byte(step)}
			switch op := r.Intn(10); op {
			case 0, 1: // InstallPending anywhere in the chain
				i := c.at(ts + 1)
				exists := i >= 0 && c.vers[i].ts == ts
				err := s.InstallPending(g, ts, val)
				if exists != (err == ErrVersionExists) || (!exists && err != nil) {
					fail(step, "InstallPending(%d@%d) = %v, version exists: %v", k, ts, err, exists)
				}
				if !exists {
					c.insert(ts, val)
				}
			case 2: // InstallChecked
				err := s.InstallChecked(g, ts, val)
				if c.admits(ts) != (err == nil) {
					fail(step, "InstallChecked(%d@%d) = %v, reference admits: %v", k, ts, err, c.admits(ts))
				}
				if err == nil {
					c.insert(ts, val)
				}
			case 3, 4, 5, 6: // resolve or overwrite one pending version, any position
				p := c.pending()
				if len(p) == 0 {
					continue
				}
				v := &c.vers[p[r.Intn(len(p))]]
				switch op {
				case 3:
					s.Commit(g, v.ts)
					v.committed = true
				case 4:
					v.commitTS = vclock.Time(1 + r.Intn(300))
					s.CommitAt(g, v.ts, v.commitTS)
					v.committed = true
				case 5:
					s.UpdatePending(g, v.ts, val)
					v.value = val
				case 6:
					s.Abort(g, v.ts)
					i := c.at(v.ts + 1)
					c.vers = append(c.vers[:i], c.vers[i+1:]...)
				}
			case 7: // registered read
				bound, reader := vclock.Time(r.Intn(320)), vclock.Time(r.Intn(320))
				gotV, gotTS, gotOK, wait := s.ReadRegistered(g, bound, reader)
				i := c.at(bound)
				switch {
				case i < 0:
					c.initRTS = max(c.initRTS, reader)
					if gotOK || wait != nil {
						fail(step, "ReadRegistered(%d<%d) found a version in an empty range", k, bound)
					}
				case !c.vers[i].committed:
					if gotOK || wait == nil || gotTS != c.vers[i].ts {
						fail(step, "ReadRegistered(%d<%d) = ts %d ok %v wait %v, want a wait on pending %d",
							k, bound, gotTS, gotOK, wait != nil, c.vers[i].ts)
					}
				default:
					c.vers[i].readTS = max(c.vers[i].readTS, reader)
					if !gotOK || wait != nil || gotTS != c.vers[i].ts || !bytes.Equal(gotV, c.vers[i].value) {
						fail(step, "ReadRegistered(%d<%d) = %v@%d ok %v, want %v@%d",
							k, bound, gotV, gotTS, gotOK, c.vers[i].value, c.vers[i].ts)
					}
				}
			case 8: // GC against the full sweep
				w := vclock.Time(r.Intn(320))
				want := 0
				for i := range ref {
					want += ref[i].prune(w)
				}
				if got := s.GC(w); got != want {
					fail(step, "GC(%d) pruned %d, full sweep prunes %d", w, got, want)
				}
			case 9: // checkpoint round trip: continue on the reloaded store
				if r.Intn(4) != 0 {
					continue
				}
				var buf bytes.Buffer
				if _, err := s.WriteCheckpoint(&buf); err != nil {
					fail(step, "WriteCheckpoint: %v", err)
				}
				loaded, _, err := ReadCheckpoint(&buf)
				if err != nil {
					fail(step, "ReadCheckpoint: %v", err)
				}
				s = loaded
				for i := range ref {
					kept := ref[i].vers[:0]
					for _, v := range ref[i].vers {
						if v.committed {
							v.readTS, v.commitTS = 0, 0 // neither is captured
							kept = append(kept, v)
						}
					}
					ref[i] = refChain{vers: kept}
				}
			}

			// Compare everything observable, every step.
			total := 0
			queued := queuedChains(s)
			for k := range ref {
				g, c := gid(k), &ref[k]
				total += len(c.vers)
				got := s.Versions(g)
				if len(got) != len(c.vers) {
					fail(step, "granule %d holds %d versions, want %d", k, len(got), len(c.vers))
				}
				committed := 0
				for i, v := range c.vers {
					state := Pending
					if v.committed {
						state = Committed
						committed++
					}
					want := VersionInfo{TS: v.ts, State: state, ReadTS: v.readTS, Len: len(v.value)}
					if got[i] != want {
						fail(step, "granule %d version %d = %+v, want %+v", k, i, got[i], want)
					}
				}
				if ch := s.chainOf(g, false); ch != nil {
					if (ch.next != nil) != queued[ch] {
						fail(step, "granule %d: next set %v but on the queue: %v", k, ch.next != nil, queued[ch])
					}
					if committed >= 2 && ch.next == nil {
						fail(step, "granule %d holds %d committed versions and is not queued", k, committed)
					}
				}
				bound := vclock.Time(r.Intn(320))
				gotV, gotTS, gotOK := s.ReadCommittedBefore(g, bound)
				if i := c.latestCommitted(bound); gotOK != (i >= 0) ||
					(gotOK && (gotTS != c.vers[i].ts || !bytes.Equal(gotV, c.vers[i].value))) {
					fail(step, "ReadCommittedBefore(%d<%d) = %v@%d ok %v, reference index %d", k, bound, gotV, gotTS, gotOK, i)
				}
				gotV, gotTS, gotOK = s.ReadCommittedAsOf(g, bound)
				i := len(c.vers) - 1
				for i >= 0 && !(c.vers[i].committed && c.vers[i].commitTS < bound) {
					i--
				}
				if gotOK != (i >= 0) || (gotOK && (gotTS != c.vers[i].ts || !bytes.Equal(gotV, c.vers[i].value))) {
					fail(step, "ReadCommittedAsOf(%d<%d) = %v@%d ok %v, reference index %d", k, bound, gotV, gotTS, gotOK, i)
				}
			}
			if got := s.TotalVersions(); got != total {
				fail(step, "TotalVersions = %d, want %d", got, total)
			}
		}
	}
}
