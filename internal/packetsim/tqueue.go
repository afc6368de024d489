package packetsim

import "repro/internal/eventq"

// tqueue is a transport shard's event queue: three sources, each already in
// (time, key) order, merged at the front by that same key, so it pops
// exactly what one eventq.Queue holding every event would.
//
// The split keeps the heap that packets pay for small. Over one svc-storm
// run (the F30 retry-storm cells) a single heap averages about 1,750
// entries, about 1,300 of them retransmission timers and 340 Schedule wakes,
// while the data and ACK hops that make up 8.0M of 9.7M pops average only
// about 93:
//
//   - near holds data and ACK hops;
//   - fifo holds timers armed at the base RTO. Each lands at now+RTOSec and
//     now never decreases across a shard's handlers, so these arms arrive in
//     time order. Their content keys need not grow at equal times, so a
//     timer that would sort below the FIFO's tail goes to far instead;
//   - far holds everything else: flow starts, fault transitions (negative
//     keys), probes, wakes, and backed-off timers, whose times are not
//     monotone in arm order.
//
// Every event keeps its key, stale timers included, so the set and order of
// pops is that of the single heap.
type tqueue struct {
	near eventq.Queue[stevent]
	far  eventq.Queue[stevent]
	fifo timerFIFO
}

// Len returns the number of queued events.
func (q *tqueue) Len() int { return q.near.Len() + q.far.Len() + q.fifo.n }

// Push queues an event other than a retransmission timer: hops go to near,
// everything else to far.
func (q *tqueue) Push(t float64, key int64, ev stevent) {
	if ev.kind <= tevAck {
		q.near.Push(t, key, ev)
	} else {
		q.far.Push(t, key, ev)
	}
}

// pushTimer queues a retransmission timer armed at now to fire after rto.
// Only a timer at the base RTO that sorts at or above the FIFO's tail may
// join the FIFO: a backed-off one lands later than base-RTO timers armed
// after it, and a smaller key at the tail's time would pop out of order.
func (q *tqueue) pushTimer(now, rto, base float64, key int64, ev stevent) {
	t := now + rto
	if rto == base {
		if q.fifo.n == 0 {
			q.fifo.push(t, key, ev)
			return
		}
		if tt, tk := q.fifo.tail(); !keyLess(t, key, tt, tk) {
			q.fifo.push(t, key, ev)
			return
		}
	}
	q.far.Push(t, key, ev)
}

// Grow makes room for n more hops (the window loop's handoffs are all hops).
func (q *tqueue) Grow(n int) { q.near.Grow(n) }

// head returns the source holding the least key and that key's time; src is
// -1 on an empty queue.
func (q *tqueue) head() (src int, t float64) {
	const near, fifo, far = 0, 1, 2
	src = -1
	var s int64
	if q.near.Len() > 0 {
		src = near
		t, s, _ = q.near.Peek()
	}
	if q.fifo.n > 0 {
		e := &q.fifo.buf[q.fifo.head]
		if src < 0 || keyLess(e.time, e.key, t, s) {
			src, t, s = fifo, e.time, e.key
		}
	}
	if q.far.Len() > 0 {
		if ft, fs, _ := q.far.Peek(); src < 0 || keyLess(ft, fs, t, s) {
			src, t = far, ft
		}
	}
	return src, t
}

// Peek returns the least-keyed event without removing it. It panics on an
// empty queue.
func (q *tqueue) Peek() (float64, int64, stevent) {
	switch src, _ := q.head(); src {
	case 0:
		return q.near.Peek()
	case 1:
		e := q.fifo.buf[q.fifo.head]
		return e.time, e.key, e.ev
	default:
		return q.far.Peek()
	}
}

// popBefore removes and returns the least-keyed event if its time is below
// end; ok is false (and nothing is removed) otherwise or when the queue is
// empty. One head selection serves both the window-edge test and the pop.
func (q *tqueue) popBefore(end float64) (t float64, key int64, ev stevent, ok bool) {
	src, t := q.head()
	if src < 0 || t >= end {
		return 0, 0, stevent{}, false
	}
	switch src {
	case 0:
		t, key, ev = q.near.Pop()
	case 1:
		t, key, ev = q.fifo.pop()
	default:
		t, key, ev = q.far.Pop()
	}
	return t, key, ev, true
}

// keyLess orders event keys by time, breaking ties by key.
func keyLess(at float64, ak int64, bt float64, bk int64) bool {
	return at < bt || (at == bt && ak < bk)
}

// timerFIFO is a growable ring of keyed events popped in push order.
type timerFIFO struct {
	buf  []fifoEntry // len is zero or a power of two
	head int         // index of the oldest entry
	n    int
}

type fifoEntry struct {
	time float64
	key  int64
	ev   stevent
}

func (f *timerFIFO) push(t float64, key int64, ev stevent) {
	if f.n == len(f.buf) {
		grown := make([]fifoEntry, max(2*len(f.buf), 64))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = fifoEntry{time: t, key: key, ev: ev}
	f.n++
}

// tail returns the newest entry's key; the ring must be nonempty.
func (f *timerFIFO) tail() (float64, int64) {
	e := &f.buf[(f.head+f.n-1)&(len(f.buf)-1)]
	return e.time, e.key
}

func (f *timerFIFO) pop() (float64, int64, stevent) {
	e := f.buf[f.head]
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return e.time, e.key, e.ev
}
