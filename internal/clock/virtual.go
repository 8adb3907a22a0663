package clock

import (
	"sync"
	"time"
)

// Epoch is the default origin of a Virtual clock: an arbitrary fixed instant
// so that traces and reports are stable across runs and machines.
var Epoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a deterministic clock: time is a number that only moves when
// Advance, AdvanceTo, RunNext or SetNow is called, and scheduled callbacks
// run synchronously on the advancing goroutine in strict (due time,
// scheduling order) order. Two runs that schedule the same work in the same
// order therefore execute it identically — the property the scenario harness
// builds its byte-identical traces on.
//
// It is one heap behind one mutex with one pop: PopDue serves the harness's
// windowed dispatcher and Advance, AdvanceTo and RunNext alike. Callbacks may
// schedule further work (including at the current instant); the queue is
// re-examined after every callback. All methods are safe for concurrent use,
// but determinism is only meaningful when a single goroutine advances the
// clock.
type Virtual struct {
	mu sync.Mutex
	// origin is the reading the clock started at; heap keys are nanoseconds
	// since it.
	origin time.Time
	now    time.Time
	seq    uint64
	queue  vqueue
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock reading Epoch.
func NewVirtual() *Virtual { return NewVirtualAt(Epoch) }

// NewVirtualAt returns a virtual clock reading start.
func NewVirtualAt(start time.Time) *Virtual { return &Virtual{origin: start, now: start} }

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// AfterFunc implements Clock. Non-positive delays fire at the current
// instant on the next advance (they never run inline).
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.scheduleLocked(v.now.Add(d), f)
}

// scheduleLocked queues f at when, keyed by when's offset from the origin.
// time.Time.Sub saturates 292 years out: due times past that tie in the
// heap and pop in scheduling order.
func (v *Virtual) scheduleLocked(when time.Time, f func()) *vtimer {
	t := &vtimer{v: v, when: when, fn: f, pending: true}
	v.queue.push(ventry{whenNs: int64(when.Sub(v.origin)), seq: v.seq, t: t})
	v.seq++
	return t
}

// ScheduleTagged schedules a callback at an absolute instant, tagged with an
// owner (the sharded harness tags every entry with the fleet index of the
// node the callback belongs to, -1 for engine-owned work). Instants in the
// past fire at the current time on the next advance, like AfterFunc.
func (v *Virtual) ScheduleTagged(at time.Time, tag int32, f func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	if at.Before(v.now) {
		at = v.now
	}
	t := v.scheduleLocked(at, f)
	t.tag = tag
	return t
}

// PopDue removes and returns the earliest pending callback due at or before
// until, without running it and without moving the clock — the primitive a
// windowed dispatcher builds batches from. ok=false means nothing is due.
func (v *Virtual) PopDue(until time.Time) (when time.Time, tag int32, fn func(), ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.discardDeadLocked()
	if len(v.queue) == 0 || v.queue[0].t.when.After(until) {
		return time.Time{}, 0, nil, false
	}
	tm := v.queue.pop()
	tm.pending = false
	return tm.when, tm.tag, tm.fn, true
}

// SetNow moves the clock reading forward to t without running callbacks.
// Callers (the windowed dispatcher, runDue) guarantee everything due before
// t has already been popped; t never moves the clock backwards.
func (v *Virtual) SetNow(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.After(v.now) {
		v.now = t
	}
}

// discardDeadLocked drops stopped entries off the heap top.
func (v *Virtual) discardDeadLocked() {
	for len(v.queue) > 0 && !v.queue[0].t.pending {
		v.queue.pop()
	}
}

// NewTicker implements Clock. A virtual ticker re-schedules itself every d;
// ticks that find the channel occupied are coalesced like time.Ticker's.
// Note that consuming such ticks from another goroutine races with the
// advancing one — deterministic harnesses drive components by callback
// instead (AfterFunc chains).
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	vt := &vticker{v: v, d: d, ch: make(chan time.Time, 1)}
	v.mu.Lock()
	vt.timer = v.scheduleLocked(v.now.Add(d), vt.fire)
	v.mu.Unlock()
	return vt
}

// Pending returns the number of scheduled, un-stopped callbacks.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, e := range v.queue {
		if e.t.pending {
			n++
		}
	}
	return n
}

// NextAt reports the due time of the earliest pending callback.
func (v *Virtual) NextAt() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.discardDeadLocked()
	if len(v.queue) == 0 {
		return time.Time{}, false
	}
	return v.queue[0].t.when, true
}

// Advance moves the clock forward by d, running every callback that comes
// due, in order, and returns how many ran. The clock ends exactly d later
// even if fewer (or no) callbacks were scheduled.
func (v *Virtual) Advance(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	return v.AdvanceTo(v.Now().Add(d))
}

// AdvanceTo moves the clock forward to t (no-op if t is not in the future),
// running every callback due at or before t in (time, scheduling) order.
func (v *Virtual) AdvanceTo(t time.Time) int {
	ran := v.runDue(t)
	v.SetNow(t)
	return ran
}

// RunNext advances the clock to the earliest pending callback and runs every
// callback due at exactly that instant — including ones the callbacks
// themselves schedule for it. It returns the new current time and the number
// of callbacks run; zero means the queue was empty.
func (v *Virtual) RunNext() (time.Time, int) {
	next, ok := v.NextAt()
	if !ok {
		return v.Now(), 0
	}
	ran := v.runDue(next)
	v.SetNow(next)
	return v.Now(), ran
}

// runDue runs every callback due at or before t, each popped by PopDue with
// the clock moved to its due time first, and returns how many ran. A
// callback executes without the clock lock held, so it may re-enter the
// clock freely.
func (v *Virtual) runDue(t time.Time) int {
	ran := 0
	for {
		when, _, fn, ok := v.PopDue(t)
		if !ok {
			return ran
		}
		v.SetNow(when)
		fn()
		ran++
	}
}

// vtimer is one scheduled callback. The pending flag is guarded by the
// owning clock's mutex. A stopped entry stays in the heap until it reaches
// the top, where discardDeadLocked drops it.
type vtimer struct {
	v       *Virtual
	when    time.Time
	tag     int32
	pending bool
	fn      func()
}

// Stop implements Timer. Stopping after the callback ran returns false.
func (t *vtimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	stopped := t.pending
	t.pending = false
	return stopped
}

// vticker is the virtual Ticker: a self-rescheduling callback feeding a
// capacity-one channel. Its state sits under the clock's mutex.
type vticker struct {
	v  *Virtual
	d  time.Duration
	ch chan time.Time
	// timer is the next tick's entry, guarded by v.mu; nil once stopped.
	timer *vtimer
}

func (vt *vticker) C() <-chan time.Time { return vt.ch }

func (vt *vticker) Stop() {
	vt.v.mu.Lock()
	defer vt.v.mu.Unlock()
	if vt.timer != nil {
		vt.timer.pending = false
		vt.timer = nil
	}
}

func (vt *vticker) fire() {
	v := vt.v
	v.mu.Lock()
	if vt.timer == nil {
		v.mu.Unlock()
		return
	}
	vt.timer = v.scheduleLocked(v.now.Add(vt.d), vt.fire)
	now := v.now
	v.mu.Unlock()
	select {
	case vt.ch <- now:
	default: // receiver lags: coalesce, as time.Ticker does
	}
}

// ventry is one heap slot: the timer's order keys inline, so sifting
// compares integers in the slot array and never dereferences a timer.
type ventry struct {
	whenNs int64 // due time, nanoseconds since the clock's origin
	seq    uint64
	t      *vtimer
}

func (e ventry) less(o ventry) bool {
	return e.whenNs < o.whenNs || e.whenNs == o.whenNs && e.seq < o.seq
}

// vqueue is a 4-ary min-heap over (whenNs, seq). That order is total — seq
// is unique — so the pop sequence is fixed by the live set alone, whatever
// the arity or the order entries were pushed in.
type vqueue []ventry

func (q *vqueue) push(e ventry) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes the minimum; the queue must not be empty.
func (q *vqueue) pop() *vtimer {
	h := *q
	top := h[0].t
	n := len(h) - 1
	last := h[n]
	h[n] = ventry{}
	h = h[:n]
	if n > 0 {
		h.siftDown(0, last)
	}
	*q = h
	return top
}

// siftDown places e at slot i or below, moving smaller children up.
func (q vqueue) siftDown(i int, e ventry) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if q[j].less(q[m]) {
				m = j
			}
		}
		if !q[m].less(e) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = e
}
