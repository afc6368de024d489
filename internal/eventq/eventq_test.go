package eventq

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// queue is the method set Queue and Batched share.
type queue[T any] interface {
	Len() int
	Push(time float64, seq int64, v T)
	Pop() (time float64, seq int64, v T)
	Peek() (time float64, seq int64, v T)
	Reset()
	Grow(n int)
}

// forEachQueue runs test once per queue type, each built by its constructor.
func forEachQueue[T any](t *testing.T, test func(t *testing.T, newQ func(capacity int) queue[T])) {
	t.Run("Queue", func(t *testing.T) {
		test(t, func(c int) queue[T] { return New[T](c) })
	})
	t.Run("Batched", func(t *testing.T) {
		test(t, func(c int) queue[T] { return NewBatched[T](c) })
	})
}

func TestPopOrderIsSortedByTimeThenSeq(t *testing.T) {
	forEachQueue(t, testPopOrderIsSortedByTimeThenSeq)
}

func testPopOrderIsSortedByTimeThenSeq(t *testing.T, newQ func(int) queue[int]) {
	rng := rand.New(rand.NewSource(1))
	type key struct {
		t   float64
		seq int64
	}
	q := newQ(0)
	var want []key
	for i := 0; i < 5000; i++ {
		// Coarse times force plenty of ties for the seq tiebreak.
		k := key{t: float64(rng.Intn(50)), seq: int64(i)}
		want = append(want, k)
		q.Push(k.t, k.seq, i)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].t != want[j].t {
			return want[i].t < want[j].t
		}
		return want[i].seq < want[j].seq
	})
	for i, k := range want {
		tm, seq, v := q.Pop()
		if tm != k.t || seq != k.seq {
			t.Fatalf("pop %d: got (%g,%d), want (%g,%d)", i, tm, seq, k.t, k.seq)
		}
		if int64(v) != k.seq {
			t.Fatalf("pop %d: payload %d does not match seq %d", i, v, k.seq)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}

// oracle is a reference container/heap implementation with the same ordering.
type oracleItem struct {
	t   float64
	seq int64
	v   int
}

type oracle []oracleItem

func (o oracle) Len() int { return len(o) }
func (o oracle) Less(i, j int) bool {
	if o[i].t != o[j].t {
		return o[i].t < o[j].t
	}
	return o[i].seq < o[j].seq
}
func (o oracle) Swap(i, j int)        { o[i], o[j] = o[j], o[i] }
func (o *oracle) Push(x any)          { *o = append(*o, x.(oracleItem)) }
func (o *oracle) Pop() any            { old := *o; n := len(old); e := old[n-1]; *o = old[:n-1]; return e }
func (o *oracle) popItem() oracleItem { return heap.Pop(o).(oracleItem) }

func TestInterleavedAgainstContainerHeap(t *testing.T) {
	// Random interleaving of pushes and pops must match container/heap
	// exactly — the discrete-event loop is precisely this access pattern
	// (pop one, push zero or more slightly-later events).
	forEachQueue(t, testInterleavedAgainstContainerHeap)
}

func testInterleavedAgainstContainerHeap(t *testing.T, newQ func(int) queue[int]) {
	rng := rand.New(rand.NewSource(7))
	q := newQ(0)
	var o oracle
	var seq int64
	now := 0.0
	for step := 0; step < 20000; step++ {
		if q.Len() != o.Len() {
			t.Fatalf("step %d: length mismatch %d vs %d", step, q.Len(), o.Len())
		}
		if q.Len() == 0 || rng.Intn(3) > 0 {
			dt := float64(rng.Intn(4)) // frequent exact ties
			q.Push(now+dt, seq, int(seq))
			heap.Push(&o, oracleItem{t: now + dt, seq: seq, v: int(seq)})
			seq++
			continue
		}
		tm, s, v := q.Pop()
		want := o.popItem()
		if tm != want.t || s != want.seq || v != want.v {
			t.Fatalf("step %d: pop (%g,%d,%d), oracle (%g,%d,%d)",
				step, tm, s, v, want.t, want.seq, want.v)
		}
		if tm < now {
			t.Fatalf("step %d: time went backwards %g < %g", step, tm, now)
		}
		now = tm
	}
}

func TestPeek(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQ func(int) queue[string]) {
		q := newQ(0)
		q.Push(2, 0, "late")
		q.Push(1, 1, "early")
		tm, seq, v := q.Peek()
		if tm != 1 || seq != 1 || v != "early" {
			t.Fatalf("Peek = (%g,%d,%q)", tm, seq, v)
		}
		if q.Len() != 2 {
			t.Fatalf("Peek consumed an entry: len %d", q.Len())
		}
	})
}

func TestResetReuse(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQ func(int) queue[int]) {
		q := newQ(4)
		for i := 0; i < 10; i++ {
			q.Push(float64((10-i)/3), int64(i), i) // ties fill Batched's buckets
		}
		q.Pop() // leaves a partly served run in Batched
		q.Reset()
		if q.Len() != 0 {
			t.Fatalf("Len after Reset = %d", q.Len())
		}
		q.Push(5, 0, 42)
		if tm, _, v := q.Pop(); tm != 5 || v != 42 {
			t.Fatalf("pop after Reset = (%g, %d)", tm, v)
		}
	})
}

func TestPointerPayloadsReleasedOnPop(t *testing.T) {
	// Pop must clear every vacated slot so payload pointers do not pin
	// otherwise-dead memory in the backing arrays. Several pushes share each
	// time, and some land on the time being served, so Batched's buckets,
	// runs and merge buffers are covered too.
	forEachQueue(t, func(t *testing.T, newQ func(int) queue[*int]) {
		q := newQ(1)
		xs := make([]*int, 120)
		for i := range xs {
			xs[i] = new(int)
		}
		for i := 0; i < 100; i++ {
			q.Push(float64(i/40), int64(i), xs[i])
		}
		popped := map[*int]bool{}
		for q.Len() > 0 {
			_, seq, got := q.Pop()
			if got != xs[seq] || popped[got] {
				t.Fatalf("seq %d: payload identity lost", seq)
			}
			popped[got] = true
			if len(popped) == 10 {
				for i := 100; i < len(xs); i++ {
					q.Push(0, int64(i), xs[i])
				}
			}
		}
		if len(popped) != len(xs) {
			t.Fatalf("popped %d of %d payloads", len(popped), len(xs))
		}
		if n := retained(q); n != 0 {
			t.Errorf("drained queue still references %d payloads", n)
		}
	})
}

// retained counts the non-nil payloads anywhere in q's backing arrays.
func retained(q queue[*int]) int {
	n := 0
	count := func(p *int) {
		if p != nil {
			n++
		}
	}
	switch q := q.(type) {
	case *Queue[*int]:
		for _, e := range q.entries[:cap(q.entries)] {
			count(e.val)
		}
	case *Batched[*int]:
		for _, e := range q.heap[:cap(q.heap)] {
			count(e.val)
		}
		for _, buf := range [][]entry[*int]{q.run, q.gather, q.merged} {
			for _, e := range buf[:cap(buf)] {
				count(e.val)
			}
		}
		for _, c := range q.pool[:cap(q.pool)] {
			for _, it := range c.items {
				count(it.val)
			}
		}
	}
	return n
}

func BenchmarkPushPop4ary(b *testing.B) {
	// Steady-state discrete-event pattern: pop one, push one slightly later.
	type payload struct {
		flow, id, idx int32
		sentAt        float64
	}
	rng := rand.New(rand.NewSource(1))
	var q Queue[payload]
	var seq int64
	for i := 0; i < 1024; i++ {
		q.Push(rng.Float64(), seq, payload{})
		seq++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, _, v := q.Pop()
		q.Push(tm+rng.Float64(), seq, v)
		seq++
	}
}

// BenchmarkPushPopGridTies is the datagram packet engine's pattern: every
// hop takes a whole number of transmit times plus a fixed delay, so event
// times fall on a grid and many events share each time. A packet keeps its
// id (seq) for its whole journey and has one live event at a time.
func BenchmarkPushPopGridTies(b *testing.B) {
	const (
		packets = 1 << 16
		tx      = 1.2e-6
		delay   = 1e-6
	)
	bench := func(b *testing.B, q queue[int32]) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < packets; i++ {
			q.Push(float64(rng.Intn(256))*tx, int64(i), int32(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm, seq, v := q.Pop()
			q.Push(tm+float64(1+rng.Intn(4))*tx+delay, seq, v)
		}
	}
	b.Run("Queue", func(b *testing.B) { bench(b, New[int32](packets)) })
	b.Run("Batched", func(b *testing.B) { bench(b, NewBatched[int32](64)) })
}

func BenchmarkPushPopContainerHeap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var o oracle
	var seq int64
	for i := 0; i < 1024; i++ {
		heap.Push(&o, oracleItem{t: rng.Float64(), seq: seq})
		seq++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := o.popItem()
		it.t += rng.Float64()
		it.seq = seq
		heap.Push(&o, it)
		seq++
	}
}

func TestGrowReservesCapacity(t *testing.T) {
	q := New[int](2)
	q.Push(1, 0, 1)
	q.Grow(100)
	if got := cap(q.entries) - q.Len(); got < 100 {
		t.Fatalf("Grow(100) left room for %d", got)
	}
	// Contents survive the regrow.
	if tm, _, v := q.Pop(); tm != 1 || v != 1 {
		t.Fatalf("pop after Grow = (%g, %d)", tm, v)
	}
	// A no-op Grow must not shrink or reallocate.
	before := cap(q.entries)
	q.Grow(1)
	if cap(q.entries) != before {
		t.Errorf("no-op Grow changed capacity %d -> %d", before, cap(q.entries))
	}
}

// TestBatchedGrowReservesPushes is Batched's TestGrowReservesCapacity: its
// heap holds buckets, so the promise is about pushes, not slots. After
// Grow(n), n pushes — new times inline, repeated times into buckets —
// allocate nothing.
func TestBatchedGrowReservesPushes(t *testing.T) {
	const n = 1000
	q := NewBatched[int](2)
	q.Push(1, 0, 1)
	q.Grow(n)
	// Measure as testing.AllocsPerRun does: on one P, after a collection,
	// so no runtime background work lands in the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		q.Push(float64(i%50), int64(i), i)
	}
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Errorf("%d pushes after Grow(%d) allocated %d times", n, n, d)
	}
	last := -1.0
	for q.Len() > 0 {
		tm, _, _ := q.Pop()
		if tm < last {
			t.Fatalf("time went backwards %g < %g", tm, last)
		}
		last = tm
	}
}

// TestWindowReuseAllocatesNothing pins the sharded simulators' steady state:
// once Grow has sized the backing array, a Reset + Grow + refill + drain
// cycle — one synchronization window — performs zero allocations.
func TestWindowReuseAllocatesNothing(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQ func(int) queue[int64]) {
		const batch = 256
		q := newQ(batch)
		allocs := testing.AllocsPerRun(100, func() {
			q.Reset()
			q.Grow(batch)
			for i := int64(0); i < batch; i++ {
				q.Push(float64((batch-i)/8), i, i)
			}
			for q.Len() > 0 {
				q.Pop()
			}
		})
		if allocs != 0 {
			t.Errorf("window cycle allocates %v times, want 0", allocs)
		}
	})
}

func BenchmarkWindowReuse(b *testing.B) {
	// The sharded engines' barrier pattern: Reset, Grow for the incoming
	// handoff batch, refill, drain. Must report 0 allocs/op.
	const batch = 512
	q := New[int64](batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Reset()
		q.Grow(batch)
		for j := int64(0); j < batch; j++ {
			q.Push(float64(batch-j), j, j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}
