package mvstore

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"

	"hdd/internal/schema"
	"hdd/internal/vclock"
	"hdd/internal/wal"
)

// A checkpoint (§7.3, "maintaining multiple versions of the database") is
// a log segment whose writes are all committed: one wal.KindWrite frame per
// committed version in (segment, key, ts) order, then one wal.KindCommit
// whose Txn is the largest timestamp written (0 for an empty store). Read
// timestamps and commit instants (CommitAt) are not captured: a recovered
// store starts a fresh timestamp epoch above the checkpoint's high-water mark.

// WriteCheckpoint serializes all committed versions to w and returns the
// highest timestamp written, or an error for a value over wal.MaxValue bytes.
// It reads each chain's published array without a lock (committed versions
// are immutable); engines quiesce writers first, so chains are consistent.
func (s *Store) WriteCheckpoint(w io.Writer) (vclock.Time, error) {
	var chains []*chain
	s.each(func(c *chain) { chains = append(chains, c) })
	slices.SortFunc(chains, func(a, b *chain) int { return granuleCmp(a.g, b.g) })
	bw := bufio.NewWriter(w) // its errors are sticky: Flush reports the first
	frame, high := []byte(nil), vclock.Time(0)
	for _, c := range chains {
		vs := c.view()
		for i := range vs {
			if v := &vs[i]; v.committed() {
				if len(v.value) > wal.MaxValue {
					return 0, fmt.Errorf("mvstore: checkpoint: %v@%d holds %d bytes, over the %d a frame carries", c.g, v.ts, len(v.value), wal.MaxValue)
				}
				high = max(high, v.ts)
				frame = wal.AppendFrame(frame[:0], &wal.Record{
					Kind: wal.KindWrite, Txn: v.ts, Seg: c.g.Segment, Key: c.g.Key, Value: v.value})
				_, _ = bw.Write(frame)
			}
		}
	}
	// A write of its own: w gets the closing record only once it has the body.
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	frame = wal.AppendFrame(frame[:0], &wal.Record{Kind: wal.KindCommit, Txn: high})
	_, err := w.Write(frame)
	return high, err
}

// ReadCheckpoint streams a checkpoint through wal.Replay into a new Store
// and its high-water mark. At the offset Replay reports it refuses a torn
// frame or a retired record kind; no closing record, or one not the largest
// timestamp; a record after it; records out of (segment, key, ts) order.
func ReadCheckpoint(r io.Reader) (*Store, vclock.Time, error) {
	s := New()
	var high, last vclock.Time
	var g schema.GranuleID
	var vs []version // g's chain, published when the next granule starts
	closed := false
	publish := func() { // the store is not yet shared: no lock needed
		if len(vs) > 0 {
			c := s.chainOf(g, true)
			c.splice(vs, 0, 0, nil)
			if len(vs) >= 2 {
				s.enqueue(c)
			}
		}
		vs = nil
	}
	valid, _, torn, err := wal.Replay(r, func(rec wal.Record) error {
		next := schema.GranuleID{Segment: rec.Seg, Key: rec.Key}
		switch {
		case closed:
			return fmt.Errorf("a %v record follows the closing record", rec.Kind)
		case rec.Kind == wal.KindCommit && rec.Txn != high:
			return fmt.Errorf("the closing record says %d, the largest timestamp is %d", rec.Txn, high)
		case rec.Kind == wal.KindCommit:
			closed = true
			publish()
			return nil
		case vs != nil && cmp.Or(granuleCmp(next, g), cmp.Compare(rec.Txn, last)) <= 0:
			return fmt.Errorf("%v@%d does not follow %v@%d", next, rec.Txn, g, last)
		case next != g:
			publish()
		}
		g, last, high = next, rec.Txn, max(high, rec.Txn)
		v := rec.Value
		if v == nil {
			v = []byte{} // an empty value decodes as nil; nil reads as no granule
		}
		vs = append(vs, version{ts: rec.Txn, value: v, state: uint32(Committed)})
		return nil
	})
	switch {
	case err != nil:
		return nil, 0, fmt.Errorf("mvstore: checkpoint refused at offset %d: %w", valid, err)
	case torn:
		return nil, 0, fmt.Errorf("mvstore: checkpoint refused at offset %d: torn or undecodable frame", valid)
	case !closed:
		return nil, 0, fmt.Errorf("mvstore: checkpoint refused at offset %d: no closing record", valid)
	}
	return s, high, nil
}

// granuleCmp orders granules by (segment, key), the checkpoint order.
func granuleCmp(a, b schema.GranuleID) int {
	return cmp.Or(cmp.Compare(a.Segment, b.Segment), cmp.Compare(a.Key, b.Key))
}
