// The event loop: every campaign runs the same windowed, dirty-set loop — a
// conservative parallel discrete-event simulation specialized to this
// harness, of which the one-worker run is simply the inline case.
//
// The coordinator pops a whole window of due events from the virtual clock,
// routes each to the worker owning its node (fleet index mod worker count),
// and the workers execute them; when an instant closes, a worker pumps the
// inboxes of exactly the nodes that instant touched (the dirty set) instead
// of scanning the fleet. The window is as long as the scenario's lookahead:
// every message crossing the fabric waits at least MinDelay plus JitterMin
// and every periodic-task chain reschedules at least one interval ahead, so
// during a window of length L = min(link lookahead, tick intervals) no
// executed event can schedule another inside the same window — the window's
// due-event set is fixed at its start and the workers need no contact until
// its end. A fabric that can hand a message over synchronously has no
// lookahead: its window degenerates to one instant and, since a hand-off
// would otherwise cross workers mid-instant, it runs on one worker. One
// worker — asked for, or forced by a zero lookahead — executes inline on the
// coordinator goroutine; only two or more get goroutines.
//
// Determinism rests on three invariants:
//
//  1. All of one node's work happens on one worker. A delivery event is
//     owned by its destination, so a node's inbox is filled and drained in
//     one order at any worker count, and each directed link's fault stream
//     advances only on its source node's sends, in source order.
//  2. Schedules made during a window are buffered with a replay key — the
//     (instant, phase, origin, issue order) position one worker would have
//     made them at — and inserted into the virtual clock at the window
//     barrier in exactly that order. Since the clock breaks due-time ties by
//     insertion order, the heap pops in the same sequence at any worker
//     count.
//  3. Deliveries are recorded, not traced inline, and merged under the same
//     keys at the end of the run: mergeDeliveries is the only trace writer.
//
// An instant is pumped pass-major: pass 0 pumps the nodes its events (and
// ops) dirtied in rising fleet index; a node dirtied during a pass — a
// handler sent something over a synchronous fabric — is pumped later in the
// same pass if its index lies above the node being pumped, in the next pass
// otherwise; the instant closes when a pass dirties nothing. This is the
// order a scan of the whole fleet, repeated to quiescence, visits the nodes
// that have anything queued — the order the pinned traces were recorded in.
// With a positive lookahead nothing handled can land in the same instant, so
// pass 0 is the only pass.
//
// Scheduled operations (tag −1) are barriers: the coordinator cuts the
// window's batch at the op, waits for the workers, replays their buffered
// schedules, and runs the op inline on a quiescent fleet — crash/rejoin/
// publish surgery needs no locks because nothing else is running. A pump
// deferred by an op cut (the op's instant is not over) is flushed by the
// next dispatch, so a node crashed at t never handles the envelopes that
// reached it at t.
package harness

import (
	"fmt"
	"sync"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/clock"
	"pmcast/internal/event"
	"pmcast/internal/node"
)

// shardEvent is one popped virtual-clock entry routed to a worker.
type shardEvent struct {
	when time.Time
	tag  int32 // owning fleet index; −1 for coordinator (op) events
	pop  int64 // global heap pop order — the one-worker execution position
	fn   func()
}

// schedKey is the one-worker-order position of a buffered schedule or a
// recorded delivery: the instant it originated at, the phase within that
// instant (events run before op drains before pumps), the origin inside the
// phase (pop index for events, issue counter for ops, pump key — pass and
// fleet index, see dirtySet — for pumps) and the issue order within the
// origin.
type schedKey struct {
	whenNs int64
	phase  int8
	a      int64
	ord    int32
}

func (k schedKey) less(o schedKey) bool {
	if k.whenNs != o.whenNs {
		return k.whenNs < o.whenNs
	}
	if k.phase != o.phase {
		return k.phase < o.phase
	}
	if k.a != o.a {
		return k.a < o.a
	}
	return k.ord < o.ord
}

// mergeRuns visits the elements of runs in ascending key order. Every run
// already ascends — a worker buffers schedules and records in the order it
// makes them, which is key order — so a k-way merge of the heads replaces a
// sort of the concatenation. A run that does not ascend would replay in an
// order one worker never makes: that is an engine bug, and it panics.
func mergeRuns[T any](runs [][]T, key func(*T) schedKey, visit func(*T)) {
	type head struct {
		key  schedKey
		run  []T
		next int
	}
	var buf [16]head // up to 16 runs merge without allocating
	heads := buf[:0]
	for _, run := range runs {
		if len(run) > 0 {
			heads = append(heads, head{key: key(&run[0]), run: run, next: 1})
		}
	}
	for len(heads) > 0 {
		m := 0
		for j := 1; j < len(heads); j++ {
			if heads[j].key.less(heads[m].key) {
				m = j
			}
		}
		h := &heads[m]
		visit(&h.run[h.next-1])
		if h.next == len(h.run) {
			heads[m] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
			continue
		}
		k := key(&h.run[h.next])
		if k.less(h.key) {
			panic(fmt.Sprintf("harness: replay run out of order: key %+v after %+v", k, h.key))
		}
		h.key = k
		h.next++
	}
}

// bufferedSched is a schedule made during worker execution, replayed into the
// virtual clock at the next barrier in schedKey order.
type bufferedSched struct {
	key schedKey
	at  time.Time
	tag int32
	fn  func()
}

// deliveryRecord is one node's deliveries at one pump (or op drain), merged
// into the trace at the end of the run.
type deliveryRecord struct {
	key  schedKey
	node int32
	ids  []event.ID
}

// nodeClock is one node's view of time: its worker's cursor while that worker
// is executing (so Now() reads the current event's instant), the virtual
// clock otherwise. Schedules made during worker execution are buffered for
// barrier replay; schedules made at barriers (ops, bootstrap) go straight to
// the clock, tagged with their owner. It is also the node's endpoint clock,
// and as a transport.OwnedScheduler it hears where every message the node
// sends lands: a delayed delivery becomes an event of its destination, a
// synchronous one dirties it. A schedule is one clock entry, never stopped:
// a crashed generation's tick chains end at their generation check, and a
// closed endpoint drops late mail. So AfterFunc, whose timer could not stop,
// panics; the node only reads Now, since step mode starts no tickers.
type nodeClock struct{ w *shardWorker }

func (c *nodeClock) Now() time.Time {
	if c.w.live {
		return c.w.cursor
	}
	return c.w.eng.r.vc.Now()
}

func (c *nodeClock) AfterFunc(time.Duration, func()) clock.Timer {
	panic("harness: AfterFunc is not available to a harness node (its schedules cannot be stopped)")
}

func (c *nodeClock) AfterFuncOwned(owner addr.Address, d time.Duration, f func()) {
	c.scheduleTagged(d, int32(c.w.eng.r.space.Index(owner)), f)
}

func (c *nodeClock) HandedOff(owner addr.Address) {
	eng := c.w.eng
	i := int32(eng.r.space.Index(owner))
	if c.w.live && eng.workerOf(i) != c.w {
		panic("harness: synchronous hand-off between workers — a zero-lookahead fabric must run on one")
	}
	eng.touch(i)
}

// scheduleTagged runs f d from now as work of fleet index tag.
func (c *nodeClock) scheduleTagged(d time.Duration, tag int32, f func()) {
	w, at := c.w, c.Now().Add(d)
	if !w.live {
		w.eng.r.vc.ScheduleTagged(at, tag, f)
		return
	}
	w.scheds = append(w.scheds, bufferedSched{key: w.origin, at: at, tag: tag, fn: f})
	w.origin.ord++
}

func (c *nodeClock) NewTicker(time.Duration) clock.Ticker {
	panic("harness: NewTicker is not available to a harness node (step mode drives by callback)")
}

// dirtySet is a worker's ordered set of nodes to pump when the open instant
// closes: a min-heap of pump keys, pass<<32 | fleet index, so popping in key
// order is pass-major and rising index within a pass. floor is the key being
// pumped, −1 outside a pump. handle.queued keeps a node from entering twice.
type dirtySet struct {
	keys  []int64
	floor int64
}

func (d *dirtySet) push(k int64) {
	d.keys = append(d.keys, k)
	ks := d.keys
	for i := len(ks) - 1; i > 0; {
		p := (i - 1) / 2
		if ks[p] <= ks[i] {
			break
		}
		ks[p], ks[i] = ks[i], ks[p]
		i = p
	}
}

func (d *dirtySet) pop() int64 {
	ks := d.keys
	top, n := ks[0], len(ks)-1
	ks[0] = ks[n]
	d.keys = ks[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && ks[c+1] < ks[c] {
			c++
		}
		if ks[i] <= ks[c] {
			break
		}
		ks[i], ks[c] = ks[c], ks[i]
		i = c
	}
	return top
}

// shardCmd is one dispatch from the coordinator: the worker's slice of a
// window segment. cutAt, when set, is an instant an op will interrupt — the
// worker defers that instant's pump until a later dispatch closes it.
type shardCmd struct {
	events []shardEvent
	cutAt  time.Time
}

// shardWorker owns every fleet index congruent to its position mod the worker
// count: it executes their events, pumps their inboxes, and buffers their
// schedules and delivery records. All fields are touched either by the worker
// during a dispatch or by the coordinator between dispatches; with two or
// more workers the cmds/done channel pair provides the happens-before edges,
// a lone worker runs inline and has neither.
type shardWorker struct {
	eng  *shardEngine
	id   int
	cmds chan shardCmd
	done chan struct{}

	live   bool
	cursor time.Time
	origin schedKey // the key the next schedule made now is buffered under

	inbox        []shardEvent // coordinator-side staging for the next cmd
	dirty        dirtySet
	deferInstant time.Time // an open instant whose pump a later dispatch owes
	scheds       []bufferedSched
	recs         []deliveryRecord
}

func (w *shardWorker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for cmd := range w.cmds {
		w.runCmd(cmd)
		w.done <- struct{}{}
	}
}

func (w *shardWorker) runCmd(cmd shardCmd) {
	w.live = true
	cur := w.deferInstant
	w.deferInstant = time.Time{}
	for _, ev := range cmd.events {
		if !cur.IsZero() && ev.when.After(cur) {
			w.pump(cur)
		}
		cur = ev.when
		w.cursor = ev.when
		w.origin = schedKey{whenNs: ev.when.Sub(w.eng.r.start).Nanoseconds(), a: ev.pop}
		w.mark(ev.tag)
		ev.fn()
	}
	if !cur.IsZero() {
		if cur.Equal(cmd.cutAt) {
			w.deferInstant = cur
		} else {
			w.pump(cur)
		}
	}
	w.live = false
}

// mark queues fleet index i for the open instant's pump: in pass 0 outside a
// pump; during one, in the pass being pumped if i is still ahead of the node
// being pumped, in the next pass otherwise.
func (w *shardWorker) mark(i int32) {
	h := w.eng.r.handles[i]
	if h.queued {
		return
	}
	h.queued = true
	k := int64(i)
	if f := w.dirty.floor; f >= 0 {
		k |= f >> 32 << 32 // the pass being pumped
		if k <= f {
			k += 1 << 32
		}
	}
	w.dirty.push(k)
}

// pump closes an instant: it drains the dirty nodes' inboxes and delivery
// channels in pump-key order until nothing is dirty. Only a dirty node can
// have anything queued — every way into an inbox or a delivery channel marks
// its node (an event of its own, a synchronous hand-off, a publish) — so
// this has the observable effects of pumping the whole fleet to quiescence.
func (w *shardWorker) pump(at time.Time) {
	r := w.eng.r
	whenNs := at.Sub(r.start).Nanoseconds()
	w.cursor = at
	for len(w.dirty.keys) > 0 {
		k := w.dirty.pop()
		w.dirty.floor = k
		h := r.handles[int32(k)]
		h.queued = false
		if !h.alive {
			continue
		}
		key := schedKey{whenNs: whenNs, phase: 2, a: k}
		w.origin = key
		h.n.PumpInbox()
		if ids := drainIDs(h.n); len(ids) > 0 {
			w.recs = append(w.recs, deliveryRecord{key: key, node: int32(h.index), ids: ids})
		}
	}
	w.dirty.floor = -1
	if r.afterInstant != nil {
		r.afterInstant(r, w.id, at)
	}
}

// drainIDs empties a node's delivery channel without blocking.
func drainIDs(n *node.Node) []event.ID {
	var ids []event.ID
	for {
		select {
		case ev, ok := <-n.Deliveries():
			if !ok {
				return ids
			}
			ids = append(ids, ev.ID())
		default:
			return ids
		}
	}
}

// shardEngine is the coordinator's state: the workers, the window length,
// and the delivery records the coordinator itself produces while running ops.
type shardEngine struct {
	r       *run
	workers []*shardWorker
	wg      sync.WaitGroup
	// window is the conservative window length: the scenario's lookahead, or
	// one instant (a nanosecond, the clock's resolution) when it has none.
	window time.Duration

	popIdx int64
	opOrd  int64
	opRecs []deliveryRecord
	runs   [][]bufferedSched // the workers' buffers, merged at each barrier
}

// newShardEngine builds the loop's workers. A lone worker runs inline on the
// coordinator goroutine; only two or more are started as goroutines.
func newShardEngine(r *run, workers int, lookahead time.Duration) *shardEngine {
	eng := &shardEngine{r: r, window: max(lookahead, time.Nanosecond)}
	for s := 0; s < workers; s++ {
		w := &shardWorker{eng: eng, id: s, dirty: dirtySet{floor: -1}}
		eng.workers = append(eng.workers, w)
		if workers > 1 {
			w.cmds = make(chan shardCmd, 1)
			w.done = make(chan struct{}, 1)
			eng.wg.Add(1)
			go w.loop(&eng.wg)
		}
	}
	return eng
}

func (eng *shardEngine) workerOf(i int32) *shardWorker {
	return eng.workers[int(i)%len(eng.workers)]
}

// touch records that node i has something to pump at the current instant: a
// synchronous hand-off reached its inbox or a publish its delivery channel.
// Called from the node's own worker, or from the coordinator during an op or
// bootstrap — then the instant stays open until the next dispatch closes it.
func (eng *shardEngine) touch(i int32) {
	w := eng.workerOf(i)
	w.mark(i)
	if !w.live {
		w.deferInstant = eng.r.vc.Now()
	}
}

// coordDrain records a node's pending deliveries during an op (phase 1: after
// the instant's events, before its pumps).
func (eng *shardEngine) coordDrain(h *handle) {
	ids := drainIDs(h.n)
	if len(ids) == 0 {
		return
	}
	eng.opRecs = append(eng.opRecs, deliveryRecord{
		key:  schedKey{whenNs: eng.r.vc.Now().Sub(eng.r.start).Nanoseconds(), phase: 1, a: eng.opOrd},
		node: int32(h.index),
		ids:  ids,
	})
	eng.opOrd++
}

// runSegment dispatches one op-free slice of a window to the workers, waits
// for the barrier, and replays the buffered schedules into the virtual clock
// in key order. cut names an instant a following op leaves open; until is the
// window end, for the lookahead assertion.
func (eng *shardEngine) runSegment(evs []shardEvent, cut, until time.Time) {
	if S := len(eng.workers); S == 1 {
		eng.workers[0].runCmd(shardCmd{events: evs, cutAt: cut})
	} else {
		for _, w := range eng.workers {
			w.inbox = w.inbox[:0]
		}
		for _, ev := range evs {
			w := eng.workers[int(ev.tag)%S]
			w.inbox = append(w.inbox, ev)
		}
		for _, w := range eng.workers {
			w.cmds <- shardCmd{events: w.inbox, cutAt: cut}
		}
		for _, w := range eng.workers {
			<-w.done
		}
	}
	eng.runs = eng.runs[:0]
	for _, w := range eng.workers {
		eng.runs = append(eng.runs, w.scheds)
	}
	mergeRuns(eng.runs, func(bs *bufferedSched) schedKey { return bs.key }, func(bs *bufferedSched) {
		if !bs.at.After(until) {
			panic(fmt.Sprintf("harness: lookahead violation: schedule at %v inside window ending %v",
				bs.at, until))
		}
		eng.r.vc.ScheduleTagged(bs.at, bs.tag, bs.fn)
	})
	for _, w := range eng.workers {
		clear(w.scheds)
		w.scheds = w.scheds[:0]
	}
}

// stop shuts the worker goroutines down; their accumulated delivery records
// stay readable afterwards.
func (eng *shardEngine) stop() {
	for _, w := range eng.workers {
		if w.cmds != nil {
			close(w.cmds)
		}
	}
	eng.wg.Wait()
}

// mergeDeliveries replays every recorded delivery in key order into the
// run's trace and accounting — the one trace writer. The op drains and each
// worker's records are runs in key order, merged like the barrier's
// schedules. Keys are unique (a node is pumped once per instant and pass, op
// drains carry an issue counter), so the order does not depend on which run
// a tie would come from.
func (eng *shardEngine) mergeDeliveries() {
	runs := [][]deliveryRecord{eng.opRecs}
	for _, w := range eng.workers {
		runs = append(runs, w.recs)
	}
	r := eng.r
	mergeRuns(runs, func(rec *deliveryRecord) schedKey { return rec.key }, func(rec *deliveryRecord) {
		h := r.handles[rec.node]
		for _, id := range rec.ids {
			fmt.Fprintf(&r.trace, "%d %s %s#%d\n", rec.key.whenNs, h.key, id.Origin, id.Seq)
			r.delivered[h.key] = append(r.delivered[h.key], id)
			r.report.Delivered++
			if pub, ok := r.events[id]; ok {
				pub.got[h.key] = true
				r.latNanos = append(r.latNanos, rec.key.whenNs-pub.at)
			}
		}
	})
}

// loop is the coordinator: windows of fixed due-event sets, partitioned to
// the workers, with ops as barriers inside the window.
func (r *run) loop(end time.Time) {
	eng := r.eng
	vc := r.vc
	var evs []shardEvent
	for {
		T, ok := vc.NextAt()
		if !ok || T.After(end) {
			break
		}
		until := T.Add(eng.window - time.Nanosecond)
		if until.After(end) {
			until = end
		}
		evs = evs[:0]
		for {
			when, tag, fn, ok := vc.PopDue(until)
			if !ok {
				break
			}
			evs = append(evs, shardEvent{when: when, tag: tag, pop: eng.popIdx, fn: fn})
			eng.popIdx++
		}
		r.report.ClockEvents += len(evs)
		for segStart := 0; ; {
			j := segStart
			for j < len(evs) && evs[j].tag >= 0 {
				j++
			}
			var cut time.Time
			if j < len(evs) {
				cut = evs[j].when
			}
			eng.runSegment(evs[segStart:j], cut, until)
			if j >= len(evs) {
				break
			}
			vc.SetNow(evs[j].when)
			evs[j].fn()
			segStart = j + 1
		}
		vc.SetNow(until)
	}
	vc.SetNow(end)
}
