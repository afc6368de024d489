package eventq

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Batched is a priority queue with Queue's methods and Queue's exact
// (time, then seq) pop order, built for event sets in which many events
// share a time. Its 4-ary heap is keyed on time alone, and an entry is
// either one inline event or a bucket: a chain of fixed-size chunks holding
// events that share the entry's time. A direct-mapped cache on the time's
// bits finds the bucket still accepting pushes at a time, so a push at an
// already-pending time is an append, not a heap insertion. When a time
// reaches the front, every entry at that time is gathered into one run and
// sorted by seq once; pops then take the run in order.
//
// Times compare as float64 values: -0 is stored as +0, so an event pushed at
// -0 pops at +0 (Queue returns the time as pushed), and NaN times are not
// allowed. The zero value is an empty queue ready for use.
type Batched[T any] struct {
	heap []bentry[T]

	// cache maps a time's bits to the bucket accepting pushes at that time.
	cache [cacheSlots]slot

	// pool holds every bucket's chunks; free heads the chain of unused ones
	// (1-based, 0 ends a chain).
	pool []chunk[T]
	free int32

	// run is the front of the queue: gathered events sorted by (time, seq),
	// served from run[head]. Every heap time is above run[head].time, or the
	// next Pop or Peek merges that time's events into the run first. gather,
	// merged and keys are refill's scratch buffers.
	run             []entry[T]
	head            int
	gather, merged  []entry[T]
	keys, spareKeys []uint64

	n int
}

// bentry is a heap entry: an inline event when bucket is 0, otherwise the
// 1-based index of the first chunk of a bucket of events at time.
type bentry[T any] struct {
	time   float64
	seq    int64
	val    T
	bucket int32
}

const (
	cacheBits  = 12
	cacheSlots = 1 << cacheBits
	chunkSize  = 16
	minChunks  = 16
)

// slot records the last time pushed into its cache line and, when tail is
// nonzero, the 1-based index of the last chunk of that time's open bucket.
// The zero slot reads as time +0 with no bucket, which is a valid state.
type slot struct {
	bits uint64
	tail int32
}

type chunk[T any] struct {
	items [chunkSize]bitem[T]
	n     int32
	next  int32 // 1-based index of the next chunk in the bucket or free chain
}

type bitem[T any] struct {
	seq int64
	val T
}

// NewBatched returns an empty batched queue whose heap has room for capacity
// entries before it regrows.
func NewBatched[T any](capacity int) *Batched[T] {
	return &Batched[T]{heap: make([]bentry[T], 0, capacity)}
}

// Len returns the number of queued events.
func (q *Batched[T]) Len() int { return q.n }

func slotIndex(bits uint64) uint64 { return bits * 0x9E3779B97F4A7C15 >> (64 - cacheBits) }

// Push inserts v keyed by (time, seq). Callers that need deterministic pop
// order must never reuse a (time, seq) pair. A push adds at most one heap
// entry and allocates only when the heap is full, so Grow(n) makes the next
// n pushes allocation-free.
func (q *Batched[T]) Push(time float64, seq int64, v T) {
	if time == 0 {
		time = 0 // -0 becomes +0: one time, one cache key
	}
	q.n++
	key := math.Float64bits(time)
	s := &q.cache[slotIndex(key)]
	if s.bits != key {
		// First push at this time since the line last changed hands: the
		// event goes inline, and a second push at the time opens a bucket.
		*s = slot{bits: key}
		q.heapPush(bentry[T]{time: time, seq: seq, val: v})
		return
	}
	if s.tail != 0 {
		if c := &q.pool[s.tail-1]; c.n < chunkSize {
			c.items[c.n] = bitem[T]{seq: seq, val: v}
			c.n++
			return
		}
	}
	if k := q.newChunk(); k != 0 {
		c := &q.pool[k-1]
		c.items[0] = bitem[T]{seq: seq, val: v}
		c.n = 1
		if s.tail != 0 {
			q.pool[s.tail-1].next = k // the bucket's last chunk is full
		} else {
			q.heapPush(bentry[T]{time: time, bucket: k}) // open a bucket
		}
		s.tail = k
		return
	}
	q.heapPush(bentry[T]{time: time, seq: seq, val: v})
}

// newChunk returns the 1-based index of an empty chunk, or 0 when none is
// free and the heap still has room for an inline entry: the pool grows only
// when the push would regrow the heap anyway.
func (q *Batched[T]) newChunk() int32 {
	if k := q.free; k != 0 {
		q.free = q.pool[k-1].next
		q.pool[k-1].next = 0
		return k
	}
	if len(q.pool) == cap(q.pool) {
		if len(q.heap) < cap(q.heap) {
			return 0
		}
		q.pool = slices.Grow(q.pool, max(len(q.pool), minChunks))
	}
	q.pool = q.pool[:len(q.pool)+1]
	return int32(len(q.pool))
}

// Pop removes and returns the event with the smallest (time, seq) key.
// It panics on an empty queue, like indexing an empty slice.
func (q *Batched[T]) Pop() (time float64, seq int64, v T) {
	e := q.front()
	time, seq, v = e.time, e.seq, e.val
	*e = entry[T]{} // release anything the payload references
	q.head++
	q.n--
	return time, seq, v
}

// Peek returns the smallest-keyed event without removing it.
func (q *Batched[T]) Peek() (time float64, seq int64, v T) {
	e := q.front()
	return e.time, e.seq, e.val
}

// front returns the smallest-keyed event, refilling the run first when it is
// spent or the heap holds a time at or below the run's front.
func (q *Batched[T]) front() *entry[T] {
	if q.head == len(q.run) || len(q.heap) > 0 && q.heap[0].time <= q.run[q.head].time {
		q.refill()
	}
	return &q.run[q.head]
}

// refill gathers every heap entry at the heap's minimum time, sorts the
// gathered events by seq and makes them the front of the run: the whole run
// when the old one is spent, otherwise merged with what remains of it.
func (q *Batched[T]) refill() {
	t := q.heap[0].time
	key := math.Float64bits(t)
	if s := &q.cache[slotIndex(key)]; s.bits == key {
		*s = slot{} // the time's buckets are about to be freed
	}
	g := q.gather[:0]
	for len(q.heap) > 0 && q.heap[0].time == t {
		e := q.heapPop()
		if e.bucket == 0 {
			g = append(g, entry[T]{time: t, seq: e.seq, val: e.val})
			continue
		}
		for k := e.bucket; k != 0; {
			c := &q.pool[k-1]
			for _, it := range c.items[:c.n] {
				g = append(g, entry[T]{time: t, seq: it.seq, val: it.val})
			}
			clear(c.items[:c.n])
			c.n = 0
			next := c.next
			c.next = q.free
			q.free = k
			k = next
		}
	}
	if q.head == len(q.run) {
		q.run, q.head = q.sortInto(q.run[:0], g), 0
		clear(g)
		q.gather = g[:0]
		return
	}
	sorted := q.sortInto(q.merged[:0], g)
	clear(g)
	// Every gathered time is at or below run[head].time, so only the run's
	// events at exactly t interleave with the gathered ones.
	rest := q.run[q.head:]
	m := g[:0]
	i, j := 0, 0
	for i < len(sorted) && j < len(rest) {
		if rest[j].time == t && rest[j].seq < sorted[i].seq {
			m = append(m, rest[j])
			j++
		} else {
			m = append(m, sorted[i])
			i++
		}
	}
	m = append(m, sorted[i:]...)
	m = append(m, rest[j:]...)
	clear(q.run)
	clear(sorted)
	q.gather, q.merged, q.run, q.head = sorted[:0], q.run[:0], m, 0
}

// sortInto appends one time's gathered events to out in seq order. When the
// seqs span few enough values, it radix-sorts packed (seq offset, index)
// words and permutes by index; otherwise it falls back to a comparison sort.
func (q *Batched[T]) sortInto(out, g []entry[T]) []entry[T] {
	if len(g) == 0 {
		return out
	}
	lo, hi, inOrder := g[0].seq, g[0].seq, true
	for i := 1; i < len(g); i++ {
		s := g[i].seq
		inOrder = inOrder && s > g[i-1].seq
		lo, hi = min(lo, s), max(hi, s)
	}
	if inOrder {
		return append(out, g...)
	}
	shift := bits.Len(uint(len(g) - 1))
	if uint64(hi)-uint64(lo) >= 1<<(64-shift) {
		slices.SortFunc(g, func(a, b entry[T]) int { return cmp.Compare(a.seq, b.seq) })
		return append(out, g...)
	}
	keys := q.keys[:0]
	for i, e := range g {
		keys = append(keys, (uint64(e.seq)-uint64(lo))<<shift|uint64(i))
	}
	q.spareKeys = slices.Grow(q.spareKeys[:0], len(keys))[:len(keys)]
	keys, q.spareKeys = radixSort(keys, q.spareKeys, shift+bits.Len64(uint64(hi)-uint64(lo)))
	mask := uint64(1)<<shift - 1
	for _, k := range keys {
		out = append(out, g[k&mask])
	}
	q.keys = keys
	return out
}

// radixSort sorts keys, whose values fit in width bits, by least significant
// byte first through tmp (same length), skipping bytes every key shares. It
// returns the sorted slice and the other buffer.
func radixSort(keys, tmp []uint64, width int) ([]uint64, []uint64) {
	for shift := 0; shift < width; shift += 8 {
		var count [256]int
		for _, k := range keys {
			count[k>>shift&0xff]++
		}
		if count[keys[0]>>shift&0xff] == len(keys) {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := k >> shift & 0xff
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys, tmp
}

// Reset empties the queue, keeping its storage for reuse.
func (q *Batched[T]) Reset() {
	clear(q.heap)
	q.heap = q.heap[:0]
	clear(q.cache[:])
	clear(q.pool)
	q.pool = q.pool[:0]
	q.free = 0
	clear(q.run)
	q.run = q.run[:0]
	q.head = 0
	q.n = 0
}

// Grow ensures the queue can absorb n more pushes without allocating.
func (q *Batched[T]) Grow(n int) {
	if n <= cap(q.heap)-len(q.heap) {
		return
	}
	grown := make([]bentry[T], len(q.heap), len(q.heap)+n)
	copy(grown, q.heap)
	q.heap = grown
}

func (q *Batched[T]) heapPush(e bentry[T]) {
	q.heap = append(q.heap, e)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !(e.time < q.heap[p].time) {
			break
		}
		q.heap[i] = q.heap[p]
		i = p
	}
	q.heap[i] = e
}

func (q *Batched[T]) heapPop() bentry[T] {
	top := q.heap[0]
	n := len(q.heap) - 1
	e := q.heap[n]
	q.heap[n] = bentry[T]{}
	q.heap = q.heap[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if q.heap[j].time < q.heap[m].time {
				m = j
			}
		}
		if !(q.heap[m].time < e.time) {
			break
		}
		q.heap[i] = q.heap[m]
		i = m
	}
	q.heap[i] = e
	return top
}
