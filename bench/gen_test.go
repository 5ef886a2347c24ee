package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func draw(s *Stream, n int) []TxnSpec {
	out := make([]TxnSpec, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// The same seed must yield the identical stream — the benchmark's inputs
// are a function of --seed alone — and a different seed, lane or
// workload a different one.
func TestStreamsAreDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := draw(NewStream(w, 7, 3), 2000)
		if b := draw(NewStream(w, 7, 3), 2000); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams of seed 7 lane 3 differ", w.Name)
		}
		if b := draw(NewStream(w, 8, 3), 2000); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 yield the same stream", w.Name)
		}
		if b := draw(NewStream(w, 7, 4), 2000); reflect.DeepEqual(a, b) {
			t.Errorf("%s: lanes 3 and 4 yield the same stream", w.Name)
		}
		if w.TrickleRate > 0 {
			p := draw(NewTrickleStream(w, 7, 3), 2000)
			if q := draw(NewTrickleStream(w, 7, 3), 2000); !reflect.DeepEqual(p, q) {
				t.Errorf("%s: two trickle streams of one seed differ", w.Name)
			}
		}
	}
	a := draw(NewStream(workloadByName("update_durable"), 7, 0), 100)
	b := draw(NewStream(workloadByName("embedded_mem"), 7, 0), 100)
	if reflect.DeepEqual(a, b) {
		t.Error("two workloads share a stream")
	}
}

// The generated mix must have the shape the workload declares.
func TestStreamShape(t *testing.T) {
	const n = 40000
	for i := range workloads {
		w := &workloads[i]
		specs := draw(NewStream(w, 1, 0), n)
		updates, hot := 0, 0
		var gaps time.Duration
		for _, s := range specs {
			gaps += s.Gap
			if !s.Update {
				if s.NReads != w.ROReads {
					t.Fatalf("%s: read-only transaction with %d reads, want %d", w.Name, s.NReads, w.ROReads)
				}
				for _, g := range s.Reads[:s.NReads] {
					if g.Key >= w.Keys || int(g.Segment) >= classes {
						t.Fatalf("%s: read of %v outside the key space", w.Name, g)
					}
				}
				continue
			}
			updates++
			if s.Key >= w.Keys || s.ReadKey >= w.Keys || int(s.Class) >= classes {
				t.Fatalf("%s: update %+v outside the key space", w.Name, s)
			}
			if s.Key < w.Keys/16 {
				hot++
			}
		}
		if got := float64(updates) / n; math.Abs(got-w.UpdateFrac) > 0.01 {
			t.Errorf("%s: update share %.3f, want %.2f", w.Name, got, w.UpdateFrac)
		}
		// The lowest sixteenth of the keys draws a sixteenth of uniform
		// traffic and most of Zipfian traffic.
		if share := float64(hot) / float64(max(updates, 1)); updates > 0 && (share > 0.5) != w.Zipf {
			t.Errorf("%s: %.2f of updates hit the lowest sixteenth of the keys (Zipf=%v)", w.Name, share, w.Zipf)
		}
		if w.Rate > 0 {
			if mean := gaps.Seconds() / n; math.Abs(mean*w.Rate-1) > 0.03 {
				t.Errorf("%s: mean arrival gap %.6fs, want 1/%v", w.Name, mean, w.Rate)
			}
		} else if gaps != 0 {
			t.Errorf("%s: closed-loop stream has arrival gaps", w.Name)
		}
	}
	// The trickle is all updates, at its own rate.
	w := workloadByName("read_pipelined")
	var gaps time.Duration
	for _, s := range draw(NewTrickleStream(w, 1, 0), 20000) {
		if !s.Update {
			t.Fatal("the trickle must be updates only")
		}
		gaps += s.Gap
	}
	if mean := gaps.Seconds() / 20000; math.Abs(mean*w.TrickleRate-1) > 0.03 {
		t.Errorf("trickle: mean arrival gap %.6fs, want 1/%v", mean, w.TrickleRate)
	}
}
