// Package segctl implements the paper's deployment picture literally:
// "every data segment is controlled by a segment controller which
// supervises accesses to data granules within that segment" (§4.2), in the
// spirit of the INFOPLEX multi-processor database computer that motivated
// the work (§7.5).
//
// Each segment controller is a goroutine that owns its segment's version
// chains outright — no shared-memory locking on the data plane; all access
// is by message. The Engine in this package implements the same Protocols
// A/B/C as internal/core over these controllers, sharing the
// activity-table / activity-link / time-wall machinery (which models the
// system's control plane). It exists both as a faithful rendering of the
// paper's architecture and as an independent second implementation of the
// protocols: the differential tests drive it and the shared-memory engine
// with identical operation sequences and require identical results.
package segctl

import (
	"bytes"
	"fmt"

	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// reqKind enumerates controller messages.
type reqKind uint8

const (
	reqReadBelow reqKind = iota // Protocol A/C: latest committed below bound
	reqReadB                    // Protocol B: registered read, may park on pending
	reqWriteB                   // Protocol B: checked pending install
	reqUpdate                   // overwrite own pending version
	reqCommit                   // flip a transaction's pending versions
	reqAbort                    // discard a transaction's pending versions
	reqGC                       // prune below a watermark
	reqStats                    // report version counts
	reqStop                     // shut down
)

// request is one message to a controller.
type request struct {
	kind     reqKind
	g        schema.GranuleID
	bound    vclock.Time
	ts       vclock.Time
	readerTS vclock.Time
	value    []byte
	granules []schema.GranuleID // commit/abort sets
	reply    chan response
}

// response is a controller's answer.
type response struct {
	value   []byte
	ts      vclock.Time
	ok      bool
	err     error
	rejects int64
	pruned  int
	total   int
	regs    int64
}

// version mirrors mvstore's version for the actor-owned chains.
type version struct {
	ts       vclock.Time
	value    []byte
	commit   bool
	readTS   vclock.Time
	commitTS vclock.Time
}

// chain is one granule's history plus parked Protocol B readers.
type chain struct {
	versions []version
	initRTS  vclock.Time
	// parked holds Protocol B reads waiting for a pending version to
	// resolve; resumed on every commit/abort touching this granule.
	parked []request
}

// Controller owns one segment. Run executes its message loop; all state
// below is confined to that goroutine.
type Controller struct {
	seg    schema.SegmentID
	inbox  chan request
	chains map[uint64]*chain
	regs   int64
}

// NewController builds a controller for segment seg with the given inbox
// depth and starts its goroutine.
func NewController(seg schema.SegmentID, depth int) *Controller {
	c := &Controller{
		seg:    seg,
		inbox:  make(chan request, depth),
		chains: make(map[uint64]*chain),
	}
	go c.run()
	return c
}

// Stop shuts the controller down after the inbox drains.
func (c *Controller) Stop() {
	reply := make(chan response, 1)
	c.inbox <- request{kind: reqStop, reply: reply}
	<-reply
}

func (c *Controller) chainOf(g schema.GranuleID, create bool) *chain {
	ch := c.chains[g.Key]
	if ch == nil && create {
		ch = &chain{}
		c.chains[g.Key] = ch
	}
	return ch
}

// locate returns the index of the latest version with ts < bound, or -1.
// The bound convention (exclusive) is owned by vclock.Locate, shared with
// internal/mvstore so the two implementations cannot drift.
func (ch *chain) locate(bound vclock.Time) int {
	return vclock.Locate(len(ch.versions), func(i int) vclock.Time { return ch.versions[i].ts }, bound)
}

// run is the message loop.
func (c *Controller) run() {
	for req := range c.inbox {
		switch req.kind {
		case reqStop:
			req.reply <- response{}
			return
		case reqReadBelow:
			req.reply <- c.readBelow(req)
		case reqReadB:
			if resp, parked := c.readB(req); !parked {
				req.reply <- resp
			}
		case reqWriteB:
			req.reply <- c.writeB(req)
		case reqUpdate:
			c.update(req)
			req.reply <- response{ok: true}
		case reqCommit:
			c.finish(req, true)
			req.reply <- response{ok: true}
		case reqAbort:
			c.finish(req, false)
			req.reply <- response{ok: true}
		case reqGC:
			req.reply <- response{pruned: c.gc(req.bound)}
		case reqStats:
			total := 0
			for _, ch := range c.chains {
				total += len(ch.versions)
			}
			req.reply <- response{total: total, regs: c.regs}
		}
	}
}

// readBelow serves Protocol A/C: latest committed version below bound,
// no registration, never parks.
func (c *Controller) readBelow(req request) response {
	ch := c.chainOf(req.g, false)
	if ch == nil {
		return response{}
	}
	for i := ch.locate(req.bound); i >= 0; i-- {
		if ch.versions[i].commit {
			v := ch.versions[i]
			return response{value: bytes.Clone(v.value), ts: v.ts, ok: true}
		}
	}
	return response{}
}

// readB serves Protocol B: registered read at the reader's timestamp; if
// the governing version is pending, the request parks until it resolves.
// parked=true means no reply was sent yet.
func (c *Controller) readB(req request) (response, bool) {
	ch := c.chainOf(req.g, true)
	i := ch.locate(req.bound)
	if i < 0 {
		if req.readerTS > ch.initRTS {
			ch.initRTS = req.readerTS
			c.regs++
		}
		return response{}, false
	}
	v := &ch.versions[i]
	if !v.commit {
		ch.parked = append(ch.parked, req)
		return response{}, true
	}
	if req.readerTS > v.readTS {
		v.readTS = req.readerTS
		c.regs++
	}
	return response{value: bytes.Clone(v.value), ts: v.ts, ok: true}, false
}

// writeB serves Protocol B writes: MVTO admission check + pending install.
func (c *Controller) writeB(req request) response {
	ch := c.chainOf(req.g, true)
	i := ch.locate(req.ts)
	if i >= 0 && ch.versions[i].readTS > req.ts {
		return response{err: fmt.Errorf("segctl: write of %v at %d rejected: predecessor read at %d", req.g, req.ts, ch.versions[i].readTS), rejects: 1}
	}
	if i < 0 && ch.initRTS > req.ts {
		return response{err: fmt.Errorf("segctl: write of %v at %d rejected: initial version read at %d", req.g, req.ts, ch.initRTS), rejects: 1}
	}
	if i+1 < len(ch.versions) {
		return response{err: fmt.Errorf("segctl: write of %v at %d rejected: newer version exists", req.g, req.ts), rejects: 1}
	}
	ch.versions = append(ch.versions, version{ts: req.ts, value: req.value})
	return response{ok: true}
}

// update overwrites the transaction's own pending version.
func (c *Controller) update(req request) {
	ch := c.chainOf(req.g, false)
	if ch == nil {
		panic("segctl: update of unknown granule")
	}
	i := ch.locate(req.ts + 1)
	if i < 0 || ch.versions[i].ts != req.ts || ch.versions[i].commit {
		panic("segctl: update of missing pending version")
	}
	ch.versions[i].value = req.value
}

// finish commits or aborts a transaction's pending versions in this
// segment and resumes parked readers.
func (c *Controller) finish(req request, commit bool) {
	for _, g := range req.granules {
		ch := c.chainOf(g, false)
		if ch == nil {
			continue
		}
		i := ch.locate(req.ts + 1)
		if i >= 0 && ch.versions[i].ts == req.ts && !ch.versions[i].commit {
			if commit {
				ch.versions[i].commit = true
				ch.versions[i].commitTS = req.bound
			} else {
				ch.versions = append(ch.versions[:i], ch.versions[i+1:]...)
			}
		}
		// Resume parked readers; those still governed by a pending
		// version re-park.
		parked := ch.parked
		ch.parked = nil
		for _, p := range parked {
			if resp, reparked := c.readB(p); !reparked {
				p.reply <- resp
			}
		}
	}
}

// gc prunes each chain to the latest committed version below the
// watermark plus everything newer.
func (c *Controller) gc(watermark vclock.Time) int {
	pruned := 0
	for _, ch := range c.chains {
		keep := -1
		for i := ch.locate(watermark); i >= 0; i-- {
			if ch.versions[i].commit {
				keep = i
				break
			}
		}
		if keep > 0 {
			cut := 0
			for cut < keep && ch.versions[cut].commit {
				cut++
			}
			if cut > 0 {
				ch.versions = append([]version(nil), ch.versions[cut:]...)
				pruned += cut
			}
		}
	}
	return pruned
}

// --- synchronous client helpers (used by the engine) ---

func (c *Controller) call(req request) response {
	req.reply = make(chan response, 1)
	c.inbox <- req
	return <-req.reply
}

// ReadBelow returns the latest committed version below bound.
func (c *Controller) ReadBelow(g schema.GranuleID, bound vclock.Time) ([]byte, vclock.Time, bool) {
	r := c.call(request{kind: reqReadBelow, g: g, bound: bound})
	return r.value, r.ts, r.ok
}

// ReadRegistered performs a Protocol B read; it blocks while the governing
// version is pending.
func (c *Controller) ReadRegistered(g schema.GranuleID, bound, readerTS vclock.Time) ([]byte, vclock.Time, bool) {
	r := c.call(request{kind: reqReadB, g: g, bound: bound, readerTS: readerTS})
	return r.value, r.ts, r.ok
}

// InstallChecked performs the Protocol B admission check and pending
// install. The version keeps value, as mvstore's do.
func (c *Controller) InstallChecked(g schema.GranuleID, ts vclock.Time, value []byte) error {
	return c.call(request{kind: reqWriteB, g: g, ts: ts, value: value}).err
}

// UpdatePending overwrites the transaction's own pending version.
func (c *Controller) UpdatePending(g schema.GranuleID, ts vclock.Time, value []byte) {
	c.call(request{kind: reqUpdate, g: g, ts: ts, value: value})
}

// Commit flips the transaction's pending versions at commit instant at.
func (c *Controller) Commit(granules []schema.GranuleID, ts, at vclock.Time) {
	c.call(request{kind: reqCommit, granules: granules, ts: ts, bound: at})
}

// Abort discards the transaction's pending versions.
func (c *Controller) Abort(granules []schema.GranuleID, ts vclock.Time) {
	c.call(request{kind: reqAbort, granules: granules, ts: ts})
}

// GC prunes below the watermark, returning versions pruned.
func (c *Controller) GC(watermark vclock.Time) int {
	return c.call(request{kind: reqGC, bound: watermark}).pruned
}

// Stats returns retained version count and read registrations.
func (c *Controller) Stats() (versions int, registrations int64) {
	r := c.call(request{kind: reqStats})
	return r.total, r.regs
}
