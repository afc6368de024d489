// Package eventq provides the discrete-event priority queues shared by the
// packet-level simulators. Both pop in exact (time, then seq) order:
//
//   - Queue is a 4-ary min-heap of inline (time, seq, payload) entries. The
//     transport engine uses it: its events rarely share a time (over the
//     F30 retry-storm cells of the svc-storm benchmark at seed 1, 58.1M pops
//     fall on 52.8M distinct times, 1.1 events per time), so there is
//     nothing to batch. What costs there is the heap's size, not ties: one
//     heap per shard would average about 1,750 entries over a one-shard
//     svc-storm run, about 1,300 of them retransmission timers and 340
//     wakes, while the data and ACK hops that make 8.0M of its 9.7M pops
//     average only 93. So each shard keeps two Queues, a near one for hops
//     and a far one for starts, faults, probes, wakes and backed-off timers,
//     plus a FIFO for timers armed at the base RTO, which arrive in time
//     order, and pops the least of the three heads.
//   - Batched keys its heap on time alone and keeps the events that share a
//     time in one bucket, sorting them by seq once when the time reaches the
//     front. The datagram engine (packetsim.Run and RunSharded) uses it: its
//     fixed-size packets cross identical links, so event times fall on a
//     grid. The 12,288-server permutation of the permutation-10k benchmark
//     at seed 1 pops 1,505,350 events over 2,667 distinct times, about 564
//     per time.
//
// Compared with container/heap, Queue removes two costs from the simulators'
// inner loops: the interface boxing allocation on every Push/Pop (heap.Push
// takes `any`, so every event escapes), and one level of pointer chasing per
// comparison. The 4-ary layout halves tree height versus a binary heap, so
// sift-down — the dominant operation in a drain-heavy discrete-event loop —
// touches fewer cache lines per level for the same number of comparisons.
//
// Because (time, seq) is a strict total order whenever callers hand out
// unique sequence numbers, pop order is fully determined by the pushed keys:
// two simulators pushing the same keyed events pop them identically no
// matter how their pushes interleave or which of the two queues holds them.
// The simulator equivalence tests lean on exactly this property.
package eventq

// Queue is a min-heap of T payloads keyed by (time, then seq). The zero
// value is an empty queue ready for use.
type Queue[T any] struct {
	entries []entry[T]
}

type entry[T any] struct {
	time float64
	seq  int64
	val  T
}

// less orders entries by time, breaking ties deterministically by seq.
func less[T any](a, b *entry[T]) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// New returns an empty queue with room for capacity entries before the
// backing array regrows.
func New[T any](capacity int) *Queue[T] {
	return &Queue[T]{entries: make([]entry[T], 0, capacity)}
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.entries) }

// Push inserts v keyed by (time, seq). Callers that need deterministic pop
// order must never reuse a (time, seq) pair.
func (q *Queue[T]) Push(time float64, seq int64, v T) {
	q.entries = append(q.entries, entry[T]{time: time, seq: seq, val: v})
	q.siftUp(len(q.entries) - 1)
}

// Pop removes and returns the entry with the smallest (time, seq) key.
// It panics on an empty queue, like indexing an empty slice.
func (q *Queue[T]) Pop() (time float64, seq int64, v T) {
	top := q.entries[0]
	n := len(q.entries) - 1
	q.entries[0] = q.entries[n]
	q.entries[n] = entry[T]{} // release anything the payload references
	q.entries = q.entries[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top.time, top.seq, top.val
}

// Peek returns the smallest-keyed entry without removing it.
func (q *Queue[T]) Peek() (time float64, seq int64, v T) {
	top := &q.entries[0]
	return top.time, top.seq, top.val
}

// Reset empties the queue, keeping the backing array for reuse.
func (q *Queue[T]) Reset() {
	clear(q.entries)
	q.entries = q.entries[:0]
}

// Grow ensures the queue can absorb n more pushes without reallocating. The
// sharded simulators call it before draining a window's handoff batch into a
// shard heap, so steady-state windows stay allocation-free.
func (q *Queue[T]) Grow(n int) {
	if n <= cap(q.entries)-len(q.entries) {
		return
	}
	grown := make([]entry[T], len(q.entries), len(q.entries)+n)
	copy(grown, q.entries)
	q.entries = grown
}

// siftUp restores heap order along the path from leaf i to the root, moving
// the (single) displaced entry rather than swapping pairwise.
func (q *Queue[T]) siftUp(i int) {
	e := q.entries[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(&e, &q.entries[p]) {
			break
		}
		q.entries[i] = q.entries[p]
		i = p
	}
	q.entries[i] = e
}

// siftDown restores heap order from node i toward the leaves.
func (q *Queue[T]) siftDown(i int) {
	e := q.entries[i]
	n := len(q.entries)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Select the smallest of the up-to-four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&q.entries[j], &q.entries[m]) {
				m = j
			}
		}
		if !less(&q.entries[m], &e) {
			break
		}
		q.entries[i] = q.entries[m]
		i = m
	}
	q.entries[i] = e
}
