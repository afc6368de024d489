package packetsim

import "repro/internal/eventq"

// tqueue is the serial transport engine's event queue: three sources, each
// already in (time, seq) order, merged at the front by that same key, so it
// pops exactly what one eventq.Queue holding every event would.
//
// The split keeps the heap that packets pay for small. Over one serial
// svc-storm run (the F30 retry-storm cells) a single heap averages 1,749
// entries, 1,313 of them retransmission timers and 343 Schedule wakes, while
// the data and ACK hops that make up 8.0M of 9.69M pops average only 93:
//
//   - near holds data and ACK hops;
//   - fifo holds timers armed at the base RTO. Each lands at now+RTOSec with
//     a fresh ordinal, and now never decreases across handlers, so these
//     arms arrive in (time, seq) order and a ring pops them where a heap
//     would;
//   - far holds everything else: flow starts, fault transitions (negative
//     seqs), probes, wakes, and backed-off timers, whose times are not
//     monotone in arm order.
//
// Every event keeps its key, stale timers included, so the set and order of
// pops is that of the single heap.
type tqueue struct {
	near eventq.Queue[tevent]
	far  eventq.Queue[tevent]
	fifo timerFIFO
}

// push queues an event other than a retransmission timer: hops go to near,
// everything else to far.
func (q *tqueue) push(t float64, seq int64, ev tevent) {
	if ev.kind <= tevAck {
		q.near.Push(t, seq, ev)
	} else {
		q.far.Push(t, seq, ev)
	}
}

// pushTimer queues a retransmission timer armed at now to fire after rto.
// Only a timer at the base RTO may join the FIFO: a backed-off one lands
// later than base-RTO timers armed after it.
func (q *tqueue) pushTimer(now, rto, base float64, seq int64, ev tevent) {
	if rto == base {
		q.fifo.push(now+rto, seq, ev)
	} else {
		q.far.Push(now+rto, seq, ev)
	}
}

// len returns the number of queued events.
func (q *tqueue) len() int { return q.near.Len() + q.far.Len() + q.fifo.n }

// pop removes and returns the event with the smallest (time, seq) key over
// the three sources. It panics on an empty queue.
func (q *tqueue) pop() (float64, int64, tevent) {
	const near, fifo, far = 0, 1, 2
	src := -1
	var t float64
	var s int64
	if q.near.Len() > 0 {
		src = near
		t, s, _ = q.near.Peek()
	}
	if q.fifo.n > 0 {
		e := &q.fifo.buf[q.fifo.head]
		if src < 0 || keyLess(e.time, e.seq, t, s) {
			src, t, s = fifo, e.time, e.seq
		}
	}
	if q.far.Len() > 0 {
		if ft, fs, _ := q.far.Peek(); src < 0 || keyLess(ft, fs, t, s) {
			src = far
		}
	}
	switch src {
	case near:
		return q.near.Pop()
	case fifo:
		return q.fifo.pop()
	default:
		return q.far.Pop()
	}
}

// keyLess orders event keys by time, breaking ties by seq.
func keyLess(at float64, as int64, bt float64, bs int64) bool {
	return at < bt || (at == bt && as < bs)
}

// timerFIFO is a growable ring of keyed events popped in push order.
type timerFIFO struct {
	buf  []fifoEntry // len is zero or a power of two
	head int         // index of the oldest entry
	n    int
}

type fifoEntry struct {
	time float64
	seq  int64
	ev   tevent
}

func (f *timerFIFO) push(t float64, seq int64, ev tevent) {
	if f.n == len(f.buf) {
		grown := make([]fifoEntry, max(2*len(f.buf), 64))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = fifoEntry{time: t, seq: seq, ev: ev}
	f.n++
}

func (f *timerFIFO) pop() (float64, int64, tevent) {
	e := f.buf[f.head]
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return e.time, e.seq, e.ev
}
