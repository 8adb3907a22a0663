package transport

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// segments counts the segments q holds: the ones in use plus the spare.
func (q *Queue[T]) segments() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	k := 0
	for s := q.head; s != nil; s = s.next {
		k++
	}
	if q.spare != nil {
		k++
	}
	return k
}

// audit checks q's bookkeeping against its segments: n counts the live slots,
// n never passes the bound, every slot outside the live run is zero (a
// consumed payload is not pinned), and an open queue with items holds a
// ready token for its consumers. A queue with a view holds no segment, and
// its channel holds the bound.
func (q *Queue[T]) audit(t *testing.T) {
	t.Helper()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.view != nil && (q.n != 0 || q.head != nil || q.spare != nil || cap(q.view) != q.bound) {
		t.Fatalf("a viewed queue keeps %d items in segments (head %v, spare %v), view cap %d, bound %d",
			q.n, q.head != nil, q.spare != nil, cap(q.view), q.bound)
	}
	if q.n < 0 || q.n > q.bound {
		t.Fatalf("%d items queued, bound %d", q.n, q.bound)
	}
	var zero T
	live := 0
	for s := q.head; s != nil; s = s.next {
		lo, hi := 0, queueSegLen
		if s == q.head {
			lo = q.r
		}
		if s == q.tail {
			hi = q.w
		}
		for i := range s.slots {
			if i >= lo && i < hi {
				live++
			} else if any(s.slots[i]) != any(zero) {
				t.Fatalf("slot %d outside the live run [%d, %d) holds %v", i, lo, hi, s.slots[i])
			}
		}
	}
	if q.spare != nil {
		for i := range q.spare.slots {
			if any(q.spare.slots[i]) != any(zero) {
				t.Fatalf("spare slot %d holds %v", i, q.spare.slots[i])
			}
		}
	}
	if live != q.n {
		t.Fatalf("segments hold %d live slots, n = %d", live, q.n)
	}
	if q.lenLocked() > 0 && !q.closed && len(q.ready) == 0 {
		t.Fatalf("%d items queued and no ready token", q.lenLocked())
	}
}

// FuzzStageQueueAgainstSlice runs byte-chosen pushes, batch pushes, drains
// and a close through a Queue and through a plain slice FIFO, and demands
// the same items in the same order, the bound held exactly (a push that
// does not fit queues the prefix that does, and gives up), a closed queue
// drained to the end, and no segment kept beyond one spare whenever the
// queue is empty. At a byte-chosen op the queue switches to its channel
// view, which then holds what the model holds, in order, with len the
// depth, beside Drain; the channel closes once the closed queue drains.
func FuzzStageQueueAgainstSlice(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3})
	f.Add([]byte{40, 1, 90, 1, 90, 2, 70, 0, 1, 2, 255, 3, 0, 2, 9})
	f.Add([]byte{200, 1, 129, 1, 129, 1, 129, 2, 99, 2, 99, 1, 60, 2, 99, 2, 99, 2, 99})
	f.Add([]byte{63, 1, 63, 0, 0, 0, 0, 2, 1, 1, 64, 2, 64, 3, 1, 3, 3, 2, 5, 2, 5})
	f.Add([]byte{40, 1, 90, 0, 0, 2, 3, 4, 0, 5, 6, 1, 20, 0, 0, 2, 9, 5, 2, 1, 129, 3, 0, 5, 40})
	stopped := make(chan struct{})
	close(stopped)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		bound := 1 + 2*int(ops[0])
		q := NewQueue[int](bound)
		var model []int
		next, closed := 1, false
		var view <-chan int
		fresh := func(k int) []int {
			vs := make([]int, k)
			for i := range vs {
				vs[i] = next
				next++
			}
			return vs
		}
		for i := 1; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 6 {
			case 0:
				v := fresh(1)[0]
				want := !closed && len(model) < bound
				if got := q.TryPush(v); got != want {
					t.Fatalf("tryPush with %d/%d queued, closed %v: %v, want %v", len(model), bound, closed, got, want)
				}
				if want {
					model = append(model, v)
				}
			case 1:
				batch := fresh(1 + arg%130)
				free := bound - len(model)
				switch {
				case closed:
					if q.Push(batch, stopped) {
						t.Fatal("push into a closed queue succeeded")
					}
				case len(batch) <= free:
					if !q.Push(batch, nil) {
						t.Fatalf("push of %d with %d free gave up", len(batch), free)
					}
					model = append(model, batch...)
				default:
					// Nothing drains while it waits, so only stop ends it.
					if q.Push(batch, stopped) {
						t.Fatalf("push of %d with %d free succeeded", len(batch), free)
					}
					model = append(model, batch[:free]...)
				}
			case 2:
				dst := make([]int, 1+arg%100)
				k, open := q.Drain(dst)
				want := min(len(dst), len(model))
				if k != want || open == closed {
					t.Fatalf("drain(%d) with %d queued, closed %v: %d, open %v", len(dst), len(model), closed, k, open)
				}
				for j := 0; j < k; j++ {
					if dst[j] != model[j] {
						t.Fatalf("drained %v, want %v", dst[:k], model[:k])
					}
				}
				model = model[k:]
			case 3:
				q.Close()
				closed = true
			case 4:
				view = q.View()
			case 5:
				if view == nil {
					break
				}
				for want := 1 + arg%8; want > 0 && len(model) > 0; want-- {
					if v := <-view; v != model[0] {
						t.Fatalf("view gave %d, want %d", v, model[0])
					}
					model = model[1:]
				}
			}
			if view != nil && len(view) != len(model) {
				t.Fatalf("len(view) = %d with %d queued", len(view), len(model))
			}
			q.audit(t)
			if len(model) == 0 && q.segments() > 1 {
				t.Fatalf("an empty queue keeps %d segments", q.segments())
			}
		}
		q.Close()
		dst := make([]int, 64)
		for len(model) > 0 {
			k, open := q.Drain(dst)
			if k == 0 || open {
				t.Fatalf("drain of a closed queue with %d left: %d, open %v", len(model), k, open)
			}
			for j := 0; j < k; j++ {
				if dst[j] != model[j] {
					t.Fatalf("drained %v after close, want %v", dst[:k], model[:k])
				}
			}
			model = model[k:]
		}
		if k, open := q.Drain(dst); k != 0 || open {
			t.Fatalf("a drained closed queue gave %d, open %v", k, open)
		}
		if view == nil && ops[len(ops)-1]%2 == 0 {
			view = q.View() // a first call on a closed, drained queue
		}
		if view != nil {
			if v, ok := <-view; ok {
				t.Fatalf("the view of a closed, drained queue gave %d", v)
			}
		}
		if s := q.segments(); s > 1 {
			t.Fatalf("a drained queue keeps %d segments", s)
		}
	})
}

// TestStageQueueConcurrent puts the queue under the race detector: several
// producers against one consumer (each producer's items arrive in its
// order) and against several (each item exactly once), with close racing
// the drains; blocked batch pushes released by stop, by done and by room.
func TestStageQueueConcurrent(t *testing.T) {
	const producers, perProducer = 4, 3000
	// produce runs the producers: three push random-sized batches, the
	// fourth tries one item at a time and yields while the queue is full.
	produce := func(q *Queue[int]) *sync.WaitGroup {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(p)))
				for seq := 0; seq < perProducer; {
					if p == producers-1 {
						if q.TryPush(p*perProducer + seq) {
							seq++
						} else {
							time.Sleep(time.Microsecond)
						}
						continue
					}
					batch := make([]int, min(1+rng.Intn(90), perProducer-seq))
					for i := range batch {
						batch[i] = p*perProducer + seq + i
					}
					if !q.Push(batch, nil) {
						t.Error("push gave up with nothing to stop it")
						return
					}
					seq += len(batch)
				}
			}(p)
		}
		return &wg
	}
	// consume drains until the queue is closed and empty, or until it has
	// taken want items when want > 0.
	consume := func(q *Queue[int], want int, got func([]int)) {
		dst := make([]int, 50)
		taken := 0
		for want <= 0 || taken < want {
			k, open := q.Drain(dst)
			if k == 0 {
				if !open {
					return
				}
				<-q.Ready()
				continue
			}
			got(dst[:k])
			taken += k
		}
	}

	t.Run("one consumer keeps each producer's order", func(t *testing.T) {
		q := NewQueue[int](37)
		wg := produce(q)
		last := make([]int, producers)
		for p := range last {
			last[p] = -1
		}
		consume(q, producers*perProducer, func(vs []int) {
			for _, v := range vs {
				p, seq := v/perProducer, v%perProducer
				if seq != last[p]+1 {
					t.Fatalf("producer %d: item %d after %d", p, seq, last[p])
				}
				last[p] = seq
			}
		})
		wg.Wait()
		q.audit(t)
		if s := q.segments(); s > 1 {
			t.Errorf("the drained queue keeps %d segments", s)
		}
	})

	t.Run("a view made while producers push", func(t *testing.T) {
		q := NewQueue[int](37)
		wg := produce(q)
		switched := make(chan (<-chan int))
		go func() {
			time.Sleep(time.Millisecond)
			switched <- q.View()
		}()
		last := make([]int, producers)
		for p := range last {
			last[p] = -1
		}
		consume(q, producers*perProducer, func(vs []int) {
			for _, v := range vs {
				p, seq := v/perProducer, v%perProducer
				if seq != last[p]+1 {
					t.Fatalf("producer %d: item %d after %d", p, seq, last[p])
				}
				last[p] = seq
			}
		})
		wg.Wait()
		view := <-switched
		q.Close()
		if v, ok := <-view; ok {
			t.Fatalf("the view of a closed, drained queue gave %d", v)
		}
		q.audit(t)
	})

	t.Run("consumers and a racing close take each item once", func(t *testing.T) {
		q := NewQueue[int](500)
		wg := produce(q)
		var mu sync.Mutex
		seen := make([]int, producers*perProducer)
		var consumers sync.WaitGroup
		for c := 0; c < 3; c++ {
			consumers.Add(1)
			go func() {
				defer consumers.Done()
				consume(q, 0, func(vs []int) {
					mu.Lock()
					for _, v := range vs {
						seen[v]++
					}
					mu.Unlock()
				})
			}()
		}
		wg.Wait()
		q.Close() // while the consumers may still be draining
		consumers.Wait()
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("item %d taken %d times", v, c)
			}
		}
		if s := q.segments(); s > 1 {
			t.Errorf("the drained queue keeps %d segments", s)
		}
	})

	t.Run("a blocked push", func(t *testing.T) {
		full := func() *Queue[int] {
			q := NewQueue[int](4)
			if !q.Push([]int{1, 2, 3, 4}, nil) {
				t.Fatal("fill failed")
			}
			return q
		}
		blocked := func(q *Queue[int], stop chan struct{}) chan bool {
			res := make(chan bool, 1)
			go func() { res <- q.Push([]int{5, 6, 7}, stop) }()
			select {
			case ok := <-res:
				t.Fatalf("push into a full queue returned %v at once", ok)
			case <-time.After(20 * time.Millisecond):
			}
			return res
		}
		settle := func(res chan bool, want bool, what string) {
			select {
			case ok := <-res:
				if ok != want {
					t.Errorf("%s: push returned %v, want %v", what, ok, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: push still blocked", what)
			}
		}
		q := full()
		stop := make(chan struct{})
		res := blocked(q, stop)
		close(stop)
		settle(res, false, "released")
		if k, _ := q.Drain(make([]int, 10)); k != 4 {
			t.Errorf("a released push queued %d items past a full queue", k-4)
		}
		q = full()
		res = blocked(q, nil)
		dst := make([]int, 10)
		k, _ := q.Drain(dst[:2])
		for k < 7 {
			m, _ := q.Drain(dst[k:])
			k += m
			if m == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		settle(res, true, "room")
		for i, v := range dst[:7] {
			if v != i+1 {
				t.Fatalf("drained %v, want 1…7", dst[:7])
			}
		}
		q = full()
		res = blocked(q, nil)
		q.Close()
		settle(res, false, "closed")
	})
}
