package transport

import "sync"

// queueSegLen is how many slots one queue segment holds.
const queueSegLen = 64

// Queue is the bounded FIFO between a fabric and a node, and between the
// node's protocol stage and its egress workers. It holds storage only while
// it holds items: slots live in fixed segments of queueSegLen, a segment is
// allocated when the tail fills and released when the head drains past it,
// and at most one drained segment is kept as a spare — so a queue that never
// held anything costs no slot, and an idle one at most one segment, whatever
// its bound. (A sync.Pool would keep the released segments alive until a GC,
// which is the memory this saves.) A consumed slot is zeroed, so a delivered
// payload is not pinned by the queue.
//
// The bound is exact: a queue never holds more than bound items. Producers
// never wait: TryPush gives up on a full queue (a fabric's delivery, which
// drops on overflow like a socket buffer, and the protocol stage's egress
// hand-off). Consumers wait on Ready, then drain a bounded batch (Drain), or
// do both in one call (RecvMany).
type Queue[T any] struct {
	// ready holds a token whenever the queue may hold items: a push leaves
	// one, and a drain that leaves items behind passes one on, so one waiting
	// consumer wakes per burst. Close closes it, so every consumer wakes to
	// drain what is left.
	ready chan struct{}

	mu     sync.Mutex
	head   *queueSegment[T] // oldest segment; nil when the queue is empty
	tail   *queueSegment[T] // newest segment
	r, w   int              // next slot to read in head, to write in tail
	n      int              // items queued in the segments
	bound  int
	spare  *queueSegment[T]
	closed bool
	// view, once View is called, holds every queued item in place of the
	// segments (see View).
	view chan T
}

// Inbox is an endpoint's inbox: the queue a fabric delivers envelopes to
// and a node reads them from.
type Inbox = Queue[Envelope]

type queueSegment[T any] struct {
	slots [queueSegLen]T
	next  *queueSegment[T]
}

// NewQueue returns an empty queue that holds at most bound items.
func NewQueue[T any](bound int) *Queue[T] {
	return &Queue[T]{
		ready: make(chan struct{}, 1),
		bound: bound,
	}
}

// signalLocked leaves a ready token unless one is there already. Callers
// hold mu and have checked the queue is open: Close closes ready under mu.
func (q *Queue[T]) signalLocked() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// TryPush queues v unless the queue is full or closed, and reports whether
// it did. It never blocks.
func (q *Queue[T]) TryPush(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.lenLocked() == q.bound {
		return false
	}
	q.appendLocked(v)
	q.signalLocked()
	return true
}

// lenLocked is how many items the queue holds.
func (q *Queue[T]) lenLocked() int {
	if q.view != nil {
		return len(q.view)
	}
	return q.n
}

// appendLocked puts v, which fits, at the tail.
func (q *Queue[T]) appendLocked(v T) {
	if q.view != nil {
		q.view <- v // fits: receivers only ever make room
		return
	}
	if q.tail == nil || q.w == queueSegLen {
		seg := q.spare
		if seg == nil {
			seg = new(queueSegment[T])
		}
		q.spare = nil
		if q.tail == nil {
			q.head, q.r = seg, 0
		} else {
			q.tail.next = seg
		}
		q.tail, q.w = seg, 0
	}
	q.tail.slots[q.w] = v
	q.w++
	q.n++
}

// Drain moves up to len(dst) items, oldest first, to dst. It reports how
// many it moved and whether the queue is still open; a closed queue drains
// what it holds and then reports 0, false. It never blocks.
func (q *Queue[T]) Drain(dst []T) (k int, open bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.view != nil {
		k = q.drainViewLocked(dst)
	}
	for k < len(dst) && q.n > 0 {
		end := queueSegLen
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
		} else if q.r == queueSegLen {
			old := q.head
			q.head, q.r = old.next, 0
			q.release(old)
		}
	}
	if !q.closed && q.lenLocked() > 0 {
		q.signalLocked()
	}
	return k, !q.closed
}

// drainViewLocked is Drain's receive from the view channel.
func (q *Queue[T]) drainViewLocked(dst []T) (k int) {
	for k < len(dst) {
		select {
		case v, ok := <-q.view:
			if !ok {
				return k
			}
			dst[k] = v
			k++
		default:
			return k
		}
	}
	return k
}

// RecvMany waits until the queue holds items, then drains up to len(dst)
// of them like Drain. It reports how many it moved, and false only once the
// queue is closed and empty: a consumer stops when it sees false, and has
// handled everything by then. Several consumers may call it at once. On an
// Inbox it is BatchReceiver's RecvMany, which both fabrics' endpoints
// delegate to.
func (q *Queue[T]) RecvMany(dst []T) (int, bool) {
	if len(dst) == 0 {
		return 0, true
	}
	for {
		if k, open := q.Drain(dst); k > 0 || !open {
			return k, k > 0
		}
		<-q.ready
	}
}

// Ready holds a token whenever the queue may hold items, and is closed once
// the queue is: a consumer selects on it, then Drains.
func (q *Queue[T]) Ready() <-chan struct{} { return q.ready }

// release keeps a drained segment as the spare unless there is one already;
// otherwise it is garbage.
func (q *Queue[T]) release(seg *queueSegment[T]) {
	seg.next = nil
	if q.spare == nil {
		q.spare = seg
	}
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Close refuses further pushes and wakes every consumer to drain what is
// left. It closes View's channel, if any, too. Safe to call twice.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.ready)
	if q.view != nil {
		close(q.view)
	}
}

// View returns a channel view of the queue, for callers that must receive
// from a channel or read a depth with len: the channel receives what the
// queue receives, in order, len of it is the queue's depth, and it is closed
// once the queue is closed and drained. Drain, RecvMany and Ready keep
// working beside it.
//
// The first call switches this one queue to a channel of the full bound,
// made then and filled with what the segments held, which is the memory a
// queue exists to save. It is the Endpoint.Recv of both fabrics, whose only
// callers are bench/'s traced pass (the inbox-depth sampler and the layer
// rows' private fabrics) and tests. ROADMAP item 4 moves those callers to
// the queue and deletes View and Endpoint.Recv with them.
func (q *Queue[T]) View() <-chan T {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.view == nil {
		q.view = make(chan T, q.bound)
		for s, r := q.head, q.r; s != nil; s, r = s.next, 0 {
			end := queueSegLen
			if s == q.tail {
				end = q.w
			}
			for _, v := range s.slots[r:end] {
				q.view <- v
			}
		}
		q.head, q.tail, q.r, q.w, q.n, q.spare = nil, nil, 0, 0, 0, nil
		if q.closed {
			close(q.view)
		}
	}
	return q.view
}
