package main

// Output verification. Every value the benchmark writes is self-checking
// — writer id, writer sequence, the granule it belongs to, a per-key
// update counter and a checksum — and every read-modify-write increments
// the counter it read. In a serializable execution the committed
// versions of a key therefore carry counters 1, 2, 3, ... in timestamp
// order, which gives three cheap checks that feed `failed`:
//
//   - every value read decodes, belongs to the granule asked for, and was
//     issued by its writer at or before now (no invented or torn values);
//   - a client's Protocol B read of a key never sees a counter below the
//     one that client last had acknowledged for it (its own acked write
//     is visible to its next read);
//   - after the run — and again after reopening a durable engine from
//     its crash image — every key's counter equals the number of
//     acknowledged commits on it (no lost update, no lost commit).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"hdd"
)

// valueSize is the size of every written value (ISSUE: 64 B values).
const valueSize = 64

// preloader is the writer id of the set-up pass that writes every key
// once (counter 0, sequence 0).
const preloader = 1<<32 - 1

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// value is the decoded form of one stored value.
type value struct {
	Writer  uint32
	Seq     uint64
	Counter uint64
}

func encodeValue(dst []byte, v value, g hdd.GranuleID) []byte {
	dst = dst[:0]
	dst = binary.BigEndian.AppendUint32(dst, v.Writer)
	dst = binary.BigEndian.AppendUint64(dst, v.Seq)
	dst = binary.BigEndian.AppendUint64(dst, v.Counter)
	dst = binary.BigEndian.AppendUint32(dst, uint32(g.Segment))
	dst = binary.BigEndian.AppendUint64(dst, g.Key)
	for len(dst) < valueSize-4 {
		dst = append(dst, byte(v.Seq)+byte(len(dst)))
	}
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst, crcTable))
}

func decodeValue(b []byte, g hdd.GranuleID) (value, error) {
	if len(b) != valueSize {
		return value{}, fmt.Errorf("value of %v has %d bytes, want %d", g, len(b), valueSize)
	}
	if crc32.Checksum(b[:valueSize-4], crcTable) != binary.BigEndian.Uint32(b[valueSize-4:]) {
		return value{}, fmt.Errorf("value of %v fails its checksum", g)
	}
	v := value{
		Writer:  binary.BigEndian.Uint32(b[0:]),
		Seq:     binary.BigEndian.Uint64(b[4:]),
		Counter: binary.BigEndian.Uint64(b[12:]),
	}
	seg, key := binary.BigEndian.Uint32(b[20:]), binary.BigEndian.Uint64(b[24:])
	if hdd.SegmentID(seg) != g.Segment || key != g.Key {
		return value{}, fmt.Errorf("read of %v returned the value of {%d %d}", g, seg, key)
	}
	return v, nil
}

// oracle is the run-wide verification state shared by every writer.
type oracle struct {
	keys uint64
	// acked counts acknowledged commits per (segment, key).
	acked []atomic.Uint64
	// issued is each writer's highest sequence handed to a Write call.
	issued []atomic.Uint64
	// bad counts verification failures; firstBad keeps the first for the
	// report.
	bad      atomic.Int64
	firstBad atomic.Pointer[string]
}

func newOracle(keys uint64, writers int) *oracle {
	return &oracle{keys: keys,
		acked:  make([]atomic.Uint64, classes*int(keys)),
		issued: make([]atomic.Uint64, writers)}
}

func (o *oracle) slot(g hdd.GranuleID) int { return int(g.Segment)*int(o.keys) + int(g.Key) }

func (o *oracle) fail(format string, args ...any) {
	o.bad.Add(1)
	msg := fmt.Sprintf(format, args...)
	o.firstBad.CompareAndSwap(nil, &msg)
}

// check verifies one value read from g and returns its decoded form; ok
// is false (and the failure counted) when the value is not one the
// benchmark could have written.
func (o *oracle) check(b []byte, g hdd.GranuleID) (v value, ok bool) {
	if b == nil {
		// Every key is preloaded and the walls are advanced past the
		// preload before load starts, so a missing granule is a lost one.
		o.fail("read of %v found nothing", g)
		return value{}, false
	}
	v, err := decodeValue(b, g)
	if err != nil {
		o.fail("%v", err)
		return value{}, false
	}
	switch {
	case v.Writer == preloader:
		ok = v.Seq == 0 && v.Counter == 0
	case int(v.Writer) < len(o.issued):
		ok = v.Seq <= o.issued[v.Writer].Load()
	}
	if !ok {
		o.fail("read of %v returned a value never issued: writer %d seq %d counter %d", g, v.Writer, v.Seq, v.Counter)
	}
	return v, ok
}

// writer is one logical client's verification state. Not safe for
// concurrent use.
type writer struct {
	o   *oracle
	id  uint32
	seq uint64
	// own is the counter this client last had acknowledged, per granule.
	own []uint64
	buf []byte
}

func (o *oracle) writer(id int) *writer {
	return &writer{o: o, id: uint32(id), own: make([]uint64, len(o.acked)), buf: make([]byte, 0, valueSize)}
}

// next returns the value bytes that overwrite a version carrying counter
// prev. The slice is reused by the following call.
func (w *writer) next(g hdd.GranuleID, prev uint64) []byte {
	w.seq++
	w.o.issued[w.id].Store(w.seq)
	w.buf = encodeValue(w.buf, value{Writer: w.id, Seq: w.seq, Counter: prev + 1}, g)
	return w.buf
}

// sawOwnSegment checks a Protocol B read against this client's own
// acknowledged writes.
func (w *writer) sawOwnSegment(g hdd.GranuleID, v value) {
	if want := w.own[w.o.slot(g)]; v.Counter < want {
		w.o.fail("client %d read counter %d of %v after its own commit of %d was acknowledged", w.id, v.Counter, g, want)
	}
}

// committed records an acknowledged commit that wrote counter to g.
func (w *writer) committed(g hdd.GranuleID, counter uint64) {
	i := w.o.slot(g)
	w.own[i] = counter
	w.o.acked[i].Add(1)
}
