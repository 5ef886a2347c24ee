package mvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// Checkpointing (§7.3 "maintaining multiple versions of the database").
//
// A checkpoint captures every *committed* version; pending versions belong
// to in-flight transactions and are discarded on recovery, which is
// exactly the semantics the engines need — an uncommitted transaction that
// did not survive the checkpoint simply never happened. Read-timestamp
// registers are transient synchronization state and are not captured: a
// recovered store starts a fresh timestamp epoch above the checkpoint's
// high-water mark.
//
// The format is a length-prefixed binary stream with a trailing CRC:
//
//	magic "HDDCKPT1"
//	uvarint granuleCount
//	per granule: segment, key, uvarint versionCount,
//	             per version: ts, commitTS, uvarint len, bytes
//	crc32 (Castagnoli) of everything above
const checkpointMagic = "HDDCKPT1"

// WriteCheckpoint serializes all committed versions to w. It returns the
// highest write timestamp captured; callers restart their logical clocks
// above it.
func (s *Store) WriteCheckpoint(w io.Writer) (vclock.Time, error) {
	// Collect a stable snapshot of granule ids first (the chain directory
	// is lock-free to traverse), then serialize the committed versions of
	// each chain's published array — immutable once committed, so no chain
	// lock and no value copies are needed. Engines quiesce writers before
	// checkpointing, so the chains are also mutually consistent.
	type entry struct {
		g schema.GranuleID
		c *chain
	}
	var entries []entry
	s.chains.Range(func(k, v any) bool {
		entries = append(entries, entry{k.(schema.GranuleID), v.(*chain)})
		return true
	})
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].g, entries[j].g
		if a.Segment != b.Segment {
			return a.Segment < b.Segment
		}
		return a.Key < b.Key
	})

	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var high vclock.Time

	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return 0, err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := writeUvarint(uint64(len(entries))); err != nil {
		return 0, err
	}
	for _, e := range entries {
		if err := writeUvarint(uint64(e.g.Segment)); err != nil {
			return 0, err
		}
		if err := writeUvarint(e.g.Key); err != nil {
			return 0, err
		}
		vs := e.c.view()
		committed := 0
		for i := range vs {
			if vs[i].committed() {
				committed++
			}
		}
		if err := writeUvarint(uint64(committed)); err != nil {
			return 0, err
		}
		for i := range vs {
			v := &vs[i]
			if !v.committed() {
				continue
			}
			high = max(high, v.ts, v.commitTS)
			if err := writeUvarint(uint64(v.ts)); err != nil {
				return 0, err
			}
			if err := writeUvarint(uint64(v.commitTS)); err != nil {
				return 0, err
			}
			if err := writeUvarint(uint64(len(v.value))); err != nil {
				return 0, err
			}
			if _, err := bw.Write(v.value); err != nil {
				return 0, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return 0, err
	}
	return high, nil
}

// ReadCheckpoint deserializes a checkpoint into an empty Store, returning
// the store and the highest timestamp it contains. It verifies the magic
// and the trailing checksum and fails on any corruption. The whole
// checkpoint is buffered for verification first — the store it describes
// is in-memory anyway.
func ReadCheckpoint(r io.Reader) (*Store, vclock.Time, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("mvstore: reading checkpoint: %w", err)
	}
	// Check the magic before the checksum: "this is not a checkpoint at
	// all" (wrong file, zero-filled page) and "this checkpoint is corrupt"
	// are different operator problems and deserve different errors.
	if len(data) < len(checkpointMagic) || string(data[:len(checkpointMagic)]) != checkpointMagic {
		got := data
		if len(got) > len(checkpointMagic) {
			got = got[:len(checkpointMagic)]
		}
		return nil, 0, fmt.Errorf("mvstore: bad checkpoint magic %q at offset 0 (want %q; %d-byte file)",
			got, checkpointMagic, len(data))
	}
	if len(data) < len(checkpointMagic)+4 {
		return nil, 0, fmt.Errorf("mvstore: checkpoint truncated before checksum trailer (%d bytes, need at least %d)",
			len(data), len(checkpointMagic)+4)
	}
	payload, sum := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(sum)
	if got := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)); got != want {
		return nil, 0, fmt.Errorf("mvstore: checkpoint checksum mismatch: computed %08x over bytes [0,%d), trailer at offset %d says %08x",
			got, len(payload), len(payload), want)
	}
	br := bytes.NewReader(payload[len(checkpointMagic):])
	s := New()
	var high vclock.Time
	granules, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, fmt.Errorf("mvstore: checkpoint truncated: %w", err)
	}
	for i := uint64(0); i < granules; i++ {
		seg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("mvstore: checkpoint truncated: %w", err)
		}
		key, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("mvstore: checkpoint truncated: %w", err)
		}
		g := schema.GranuleID{Segment: schema.SegmentID(seg), Key: key}
		nvers, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("mvstore: checkpoint truncated: %w", err)
		}
		c := s.chainOf(g, true)
		if c.head.Load() != nil {
			return nil, 0, fmt.Errorf("mvstore: checkpoint lists granule %v twice", g)
		}
		var vs []version
		var prev vclock.Time
		for v := uint64(0); v < nvers; v++ {
			ts, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, 0, fmt.Errorf("mvstore: checkpoint truncated: %w", err)
			}
			commitTS, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, 0, fmt.Errorf("mvstore: checkpoint truncated: %w", err)
			}
			vlen, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, 0, fmt.Errorf("mvstore: checkpoint truncated: %w", err)
			}
			// Bound the allocation by what is actually left: a forged
			// length must fail before make, not after.
			if vlen > uint64(br.Len()) {
				return nil, 0, fmt.Errorf("mvstore: checkpoint value length %d exceeds the %d bytes remaining", vlen, br.Len())
			}
			val := make([]byte, vlen)
			if _, err := io.ReadFull(br, val); err != nil {
				return nil, 0, fmt.Errorf("mvstore: checkpoint truncated: %w", err)
			}
			if vclock.Time(ts) <= prev && v > 0 {
				return nil, 0, fmt.Errorf("mvstore: checkpoint chain for %v out of order", g)
			}
			prev = vclock.Time(ts)
			vs = append(vs, version{
				ts: vclock.Time(ts), commitTS: vclock.Time(commitTS),
				value: val, state: uint32(Committed),
			})
			if vclock.Time(ts) > high {
				high = vclock.Time(ts)
			}
			if vclock.Time(commitTS) > high {
				high = vclock.Time(commitTS)
			}
		}
		// Publish the rebuilt chain and queue it if GC could shrink it.
		// Recovery is single-threaded (the store is not yet shared), so
		// no lock is needed.
		if len(vs) > 0 {
			c.splice(vs, 0, 0, nil)
		}
		if len(vs) >= 2 {
			s.enqueue(c)
		}
	}
	if br.Len() != 0 {
		return nil, 0, fmt.Errorf("mvstore: %d trailing bytes in checkpoint", br.Len())
	}
	return s, high, nil
}
