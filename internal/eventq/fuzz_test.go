package eventq

import (
	"math"
	"testing"
)

// FuzzBatchedMatchesHeap replays a byte-driven sequence of pushes, pops,
// peeks and resets through Queue and Batched and requires identical pops.
// Each op takes two bytes: an opcode and an argument. Push times come from a
// coarse grid (heavy ties), the front time itself (a push into the run being
// served), just below the front (earlier than the front), and both signs of
// zero. Batched stores -0 as +0, so times compare with ==, and Batched must
// never return -0. Seqs are unique but not in push order.
func FuzzBatchedMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 5, 0, 1, 0, 5, 0, 5, 0})
	f.Add([]byte{0, 9, 0, 9, 0, 9, 6, 0, 1, 2, 2, 1, 5, 0, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{3, 1, 3, 0, 3, 1, 0, 0, 5, 0, 3, 0, 5, 0, 2, 3, 5, 0, 5, 0})
	f.Add([]byte{0, 200, 0, 100, 1, 7, 5, 0, 2, 0, 1, 9, 7, 0, 0, 1, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var (
			h   Queue[int64]
			b   Batched[int64]
			seq int64
		)
		push := func(tm float64, arg byte) {
			// High bits from the argument scramble the order; the counter in
			// the low bits keeps every key unique.
			seq++
			s := int64(int8(arg))<<(32+8*(arg%4)) | seq
			h.Push(tm, s, s)
			b.Push(tm, s, s)
		}
		pop := func(step int) {
			ht, hs, hv := h.Pop()
			bt, bs, bv := b.Pop()
			if ht != bt || hs != bs || hv != bv {
				t.Fatalf("step %d: Queue popped (%g,%d,%d), Batched (%g,%d,%d)", step, ht, hs, hv, bt, bs, bv)
			}
			if bt == 0 && math.Signbit(bt) {
				t.Fatalf("step %d: Batched returned -0", step)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, ops[i+1]
			switch op {
			case 0: // coarse grid time
				push(float64(arg%16)*0.25, arg)
			case 1, 2: // at the front time, or just below it
				tm := 1.0
				if h.Len() > 0 {
					tm, _, _ = h.Peek()
				}
				if op == 2 {
					tm -= float64(arg%4+1) * 0.25
				}
				push(tm, arg)
			case 3: // both signs of zero
				push(math.Copysign(0, float64(arg%2)-0.5), arg)
			case 4: // fine-grained time: few ties
				push(float64(arg)*1e-3, arg)
			case 5, 6:
				if h.Len() > 0 {
					pop(i)
				}
			case 7:
				if arg%16 == 0 {
					h.Reset()
					b.Reset()
				} else if h.Len() > 0 {
					ht, hs, _ := h.Peek()
					bt, bs, _ := b.Peek()
					if ht != bt || hs != bs {
						t.Fatalf("step %d: Queue peeks (%g,%d), Batched (%g,%d)", i, ht, hs, bt, bs)
					}
				}
			}
			if h.Len() != b.Len() {
				t.Fatalf("step %d: Len %d vs %d", i, h.Len(), b.Len())
			}
		}
		for h.Len() > 0 {
			pop(len(ops))
		}
	})
}
