package node

import "sync"

// stageSegLen is how many slots one stage-queue segment holds.
const stageSegLen = 64

// stageQueue is the bounded FIFO between two engine stages. It holds storage
// only while it holds items: slots live in fixed segments of stageSegLen, a
// segment is allocated when the tail fills and released when the head drains
// past it, and at most one drained segment is kept as a spare — so an idle
// queue costs one segment, whatever its bound. (A sync.Pool would keep the
// released segments alive until a GC, which is the memory this saves.) A
// consumed slot is zeroed, so a delivered payload is not pinned by the queue.
//
// bound is exact: a queue never holds more than bound items. Producers either
// give up on a full queue (tryPush, the protocol stage's egress hand-off) or
// wait for room (push, the ingress workers). Consumers wait on
// ready, then drain a bounded batch.
type stageQueue[T any] struct {
	// ready holds a token whenever the queue may hold items: a push leaves
	// one, and a drain that leaves items behind passes one on, so one waiting
	// consumer wakes per burst. close closes it, so every consumer wakes to
	// drain what is left.
	ready chan struct{}
	// space holds a token whenever a blocked push may find room: a drain
	// leaves one, and a push that leaves room passes one on.
	space chan struct{}

	mu     sync.Mutex
	head   *stageSegment[T] // oldest segment; nil when the queue is empty
	tail   *stageSegment[T] // newest segment
	r, w   int              // next slot to read in head, to write in tail
	n      int              // items queued
	bound  int
	spare  *stageSegment[T]
	closed bool
}

type stageSegment[T any] struct {
	slots [stageSegLen]T
	next  *stageSegment[T]
}

func newStageQueue[T any](bound int) *stageQueue[T] {
	return &stageQueue[T]{
		ready: make(chan struct{}, 1),
		space: make(chan struct{}, 1),
		bound: bound,
	}
}

// signal leaves a token on c unless one is there already. Callers hold mu and
// have checked the queue is open: close closes both channels under mu.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// tryPush queues v unless the queue is full or closed, and reports whether
// it did. It never blocks.
func (q *stageQueue[T]) tryPush(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.n == q.bound {
		return false
	}
	q.appendLocked([]T{v})
	signal(q.ready)
	return true
}

// push queues every item of batch, in order, waiting for room as long as it
// must. It reports false, with only a prefix of batch queued, when stop
// closes first or the queue is closed.
func (q *stageQueue[T]) push(batch []T, stop <-chan struct{}) bool {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return false
		}
		if k := min(len(batch), q.bound-q.n); k > 0 {
			q.appendLocked(batch[:k])
			batch = batch[k:]
			signal(q.ready)
		}
		if len(batch) == 0 {
			if q.n < q.bound {
				signal(q.space) // another pusher may be waiting for this room
			}
			q.mu.Unlock()
			return true
		}
		q.mu.Unlock()
		select {
		case <-q.space:
		case <-stop:
			return false
		}
	}
}

// appendLocked copies items, which fit, to the tail.
func (q *stageQueue[T]) appendLocked(items []T) {
	for len(items) > 0 {
		if q.tail == nil || q.w == stageSegLen {
			seg := q.spare
			if seg == nil {
				seg = new(stageSegment[T])
			}
			q.spare = nil
			if q.tail == nil {
				q.head, q.r = seg, 0
			} else {
				q.tail.next = seg
			}
			q.tail, q.w = seg, 0
		}
		c := copy(q.tail.slots[q.w:], items)
		q.w += c
		q.n += c
		items = items[c:]
	}
}

// drain moves up to len(dst) items, oldest first, to dst. It reports how
// many it moved and whether the queue is still open; a closed queue drains
// what it holds and then reports 0, false. It never blocks.
func (q *stageQueue[T]) drain(dst []T) (k int, open bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for k < len(dst) && q.n > 0 {
		end := stageSegLen
		if q.head == q.tail {
			end = q.w
		}
		run := q.head.slots[q.r:min(end, q.r+len(dst)-k)]
		copy(dst[k:], run)
		clear(run)
		k += len(run)
		q.r += len(run)
		q.n -= len(run)
		if q.n == 0 {
			q.release(q.head)
			q.head, q.tail, q.r, q.w = nil, nil, 0, 0
		} else if q.r == stageSegLen {
			old := q.head
			q.head, q.r = old.next, 0
			q.release(old)
		}
	}
	if !q.closed {
		if k > 0 {
			signal(q.space)
		}
		if q.n > 0 {
			signal(q.ready)
		}
	}
	return k, !q.closed
}

// release keeps a drained segment as the spare unless there is one already;
// otherwise it is garbage.
func (q *stageQueue[T]) release(seg *stageSegment[T]) {
	seg.next = nil
	if q.spare == nil {
		q.spare = seg
	}
}

// close refuses further pushes, releases every blocked pusher, and wakes
// every consumer to drain what is left.
func (q *stageQueue[T]) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.ready)
	close(q.space)
}
