package main

import (
	"strings"
	"testing"

	"hdd"
)

func TestValueRoundTrip(t *testing.T) {
	g := hdd.GranuleID{Segment: 2, Key: 4095}
	want := value{Writer: 7, Seq: 1 << 40, Counter: 12345}
	b := encodeValue(nil, want, g)
	if len(b) != valueSize {
		t.Fatalf("encoded %d bytes, want %d", len(b), valueSize)
	}
	got, err := decodeValue(b, g)
	if err != nil || got != want {
		t.Fatalf("decode = %+v, %v", got, err)
	}
	if _, err := decodeValue(b, hdd.GranuleID{Segment: 2, Key: 4094}); err == nil {
		t.Error("a value must not decode as another granule's")
	}
	for i := range b {
		c := append([]byte(nil), b...)
		c[i] ^= 0x10
		if _, err := decodeValue(c, g); err == nil {
			t.Fatalf("corruption of byte %d went undetected", i)
		}
	}
	if _, err := decodeValue(b[:valueSize-1], g); err == nil {
		t.Error("a truncated value must not decode")
	}
}

func TestOracleChecks(t *testing.T) {
	o := newOracle(16, 2)
	g := hdd.GranuleID{Segment: 1, Key: 3}
	w := o.writer(1)

	pre := encodeValue(nil, value{Writer: preloader}, g)
	if v, ok := o.check(pre, g); !ok || v.Counter != 0 {
		t.Fatalf("preloaded value rejected: %+v", v)
	}
	next := append([]byte(nil), w.next(g, 0)...)
	v, ok := o.check(next, g)
	if !ok || v.Counter != 1 || v.Writer != 1 {
		t.Fatalf("issued value rejected: %+v", v)
	}
	w.committed(g, v.Counter)
	if o.acked[o.slot(g)].Load() != 1 {
		t.Error("acknowledged commit not counted")
	}
	if o.bad.Load() != 0 {
		t.Fatalf("false alarm: %s", *o.firstBad.Load())
	}

	// Each of these must be caught.
	w.sawOwnSegment(g, value{Counter: 0})                                  // own acked write not visible
	o.check(nil, g)                                                        // lost granule
	o.check(encodeValue(nil, value{Writer: 1, Seq: 99, Counter: 5}, g), g) // never issued
	o.check(encodeValue(nil, value{Writer: 9, Seq: 1, Counter: 1}, g), g)  // no such writer
	if got := o.bad.Load(); got != 4 {
		t.Errorf("%d failures counted, want 4", got)
	}
	if msg := *o.firstBad.Load(); !strings.Contains(msg, "after its own commit") {
		t.Errorf("first failure = %q", msg)
	}
}
