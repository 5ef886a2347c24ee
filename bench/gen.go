package main

// The deterministic workload generator: a workload's shape plus a seed
// yields, per lane (logical client, open-loop dispatcher or probe), one
// reproducible stream of transaction specs. The system under test only
// ever sees what a stream produced; nothing is drawn from wall-clock
// time or from the scheduler.

import (
	"hash/fnv"
	"math/rand"
	"time"

	"hdd"
)

// classes is the depth of the chain partition every workload runs over:
// class i writes segment i and may read segments 0..i-1, the topology
// cmd/hddserver defaults to.
const classes = 3

// maxReads bounds the reads of one read-only transaction (read_pipelined
// uses all eight).
const maxReads = 8

// Workload is one named traffic shape. The names are fixed: later issues
// cite them.
type Workload struct {
	Name string
	// Durable runs the HDD engine with its WAL on (group commit, fsync on).
	Durable bool
	// Embedded drives the public hdd package in-process; the other
	// workloads go through client -> loopback TCP -> server.
	Embedded bool
	// Clients is the closed-loop logical client count; 0 means one per core
	// in use (GOMAXPROCS).
	// Ignored when Rate is set.
	Clients int
	// Rate, when positive, makes the main stream an open loop with
	// Poisson arrivals at this many transactions per second.
	Rate float64
	// Keys is the key range per segment; Zipf skews the choice (s=1.1)
	// instead of drawing uniformly. Fewer, hotter keys mean longer live
	// version chains: the working-set dimension of an in-memory store.
	Keys uint64
	Zipf bool
	// UpdateFrac is the share of update transactions in the main stream;
	// the rest are read-only (Protocol C) with ROReads single-key reads.
	UpdateFrac float64
	ROReads    int
	// SpareCore runs the workload on one core fewer than the machine has
	// (spareCore in run.go).
	SpareCore bool
	// TrickleRate adds a fixed-rate trickle of update transactions
	// beside a pure-read main stream, so that walls advance, chains turn
	// over and GC runs. Trickle transactions are excluded from every
	// end-to-end metric.
	TrickleRate float64
}

// workloads is the benchmark's fixed workload table; BENCHMARK.json and
// README.md carry the reason each one exists.
var workloads = []Workload{
	{Name: "update_durable", Durable: true, Clients: 8, Keys: 4096, UpdateFrac: 1},
	{Name: "read_pipelined", Clients: 16, Keys: 4096, SpareCore: true,
		UpdateFrac: 0, ROReads: maxReads, TrickleRate: 100},
	{Name: "mixed_contended", Durable: true, Rate: mixedRate, Keys: 256, Zipf: true,
		UpdateFrac: 0.75, ROReads: 2},
	{Name: "embedded_mem", Embedded: true, Keys: 4096,
		UpdateFrac: 0.75, ROReads: 2},
}

const (
	// mixedRate is mixed_contended's fixed arrival rate; see README.md
	// for the capacity measurement behind it.
	mixedRate = 4000
	// zipfS is the Zipf exponent of the skewed key choice.
	zipfS = 1.1
)

func workloadByName(name string) *Workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// TxnSpec is one generated transaction.
type TxnSpec struct {
	// Update selects the update shape: a Protocol A read of ReadKey in
	// segment Class-1 (when Class > 0), then a Protocol B
	// read-modify-write of Key in segment Class. Otherwise the
	// transaction is read-only and reads Reads[:NReads] under Protocol C.
	Update  bool
	Class   hdd.ClassID
	Key     uint64
	ReadKey uint64
	Reads   [maxReads]hdd.GranuleID
	NReads  int
	// Gap is the arrival gap since the previous transaction of an
	// open-loop stream (zero on closed-loop streams).
	Gap time.Duration
	// RetrySeed seeds the retry runner's backoff jitter.
	RetrySeed int64
}

// Stream generates one lane's transactions.
type Stream struct {
	w    *Workload
	rng  *rand.Rand
	zipf *rand.Zipf
	// updateFrac and rate override the workload's main-stream values on
	// the trickle's lane.
	updateFrac float64
	rate       float64
}

// laneSeed derives a lane's private seed, so lanes are independent
// substreams of one benchmark seed and no two workloads share a stream.
func laneSeed(name string, seed int64, lane int) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
		b[8+i] = byte(int64(lane) >> (8 * i))
	}
	h.Write(b[:])
	return int64(h.Sum64())
}

// NewStream returns lane's stream of the workload's main traffic: closed
// loop (no gaps) unless the workload has a Rate, in which case the lane
// is the open-loop dispatcher's Poisson schedule.
func NewStream(w *Workload, seed int64, lane int) *Stream {
	s := &Stream{w: w, rng: rand.New(rand.NewSource(laneSeed(w.Name, seed, lane))),
		updateFrac: w.UpdateFrac, rate: w.Rate}
	if w.Zipf {
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, w.Keys-1)
	}
	return s
}

// NewTrickleStream returns the workload's update trickle, with Poisson
// arrivals at TrickleRate.
func NewTrickleStream(w *Workload, seed int64, lane int) *Stream {
	s := NewStream(w, seed, lane)
	s.updateFrac = 1
	s.rate = w.TrickleRate
	return s
}

func (s *Stream) key() uint64 {
	if s.zipf != nil {
		return s.zipf.Uint64()
	}
	return uint64(s.rng.Int63n(int64(s.w.Keys)))
}

// Next draws the lane's next transaction.
func (s *Stream) Next() TxnSpec {
	var t TxnSpec
	if s.rate > 0 {
		t.Gap = time.Duration(s.rng.ExpFloat64() / s.rate * float64(time.Second))
	}
	t.RetrySeed = s.rng.Int63() | 1
	if s.rng.Float64() < s.updateFrac {
		t.Update = true
		t.Class = hdd.ClassID(s.rng.Intn(classes))
		t.Key = s.key()
		t.ReadKey = s.key()
		return t
	}
	t.NReads = s.w.ROReads
	for i := 0; i < t.NReads; i++ {
		t.Reads[i] = hdd.GranuleID{Segment: hdd.SegmentID(s.rng.Intn(classes)), Key: s.key()}
	}
	return t
}
