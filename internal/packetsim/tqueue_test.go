package packetsim

import (
	"testing"

	"repro/internal/eventq"
)

// FuzzTransportQueueMatchesHeap replays a byte-driven sequence of pushes and
// pops through tqueue and a single eventq.Queue holding the same keyed
// events, and requires identical pops. It keeps the engine's contract: now
// is the last popped time, every push lands at or after it, every live key
// is unique, and fault transitions carry negative keys. Keys are content
// keys in the engine's classes, so they do not grow with push order: a
// timer's key takes the argument's high bits, so two base-RTO timers armed
// at one time may arrive with falling keys, which must send the second past
// the FIFO to the far heap. Each op takes two bytes, an opcode and an
// argument. Times fall on a 0.25 grid with RTO 1, so hops, base-RTO timers,
// backed-off timers and far events tie across all three sources.
func FuzzTransportQueueMatchesHeap(f *testing.F) {
	f.Add([]byte{1, 0, 0, 4, 3, 4, 5, 0, 1, 0, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{1, 0, 2, 0, 5, 0, 1, 0, 0, 8, 5, 0, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{4, 4, 4, 4, 1, 0, 0, 4, 3, 4, 2, 1, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{0, 3, 1, 0, 5, 0, 1, 0, 2, 2, 5, 0, 1, 0, 0, 12, 5, 0, 5, 0, 5, 0})
	// Base-RTO timers armed at one time with falling keys, interleaved with
	// pops that leave the FIFO's tail in place.
	f.Add([]byte{1, 15, 1, 3, 1, 9, 1, 0, 5, 0, 1, 7, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{1, 8, 0, 4, 5, 0, 1, 15, 1, 2, 1, 14, 2, 1, 1, 1, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0})
	const rto = 1.0
	f.Fuzz(func(t *testing.T, ops []byte) {
		var (
			q     tqueue
			h     eventq.Queue[stevent]
			now   float64
			ord   int64
			fault int64
		)
		at := func(arg byte) float64 { return now + float64(arg%16)*0.25 }
		// key places arg's high bits above a fresh ordinal in class base, so
		// keys are unique but not monotone in push order.
		key := func(base int64, arg byte) int64 {
			ord++
			return base + int64(arg%16)<<32 + ord
		}
		pop := func(step int) {
			qt, qk, qe, ok := q.popBefore(now + 1e9)
			ht, hk, he := h.Pop()
			if !ok || qt != ht || qk != hk || qe != he {
				t.Fatalf("step %d: tqueue popped (%g,%d,%+v,%v), heap (%g,%d,%+v)", step, qt, qk, qe, ok, ht, hk, he)
			}
			now = qt
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, ops[i+1]
			ev := stevent{flow: int32(arg), gen: int32(i)}
			switch op {
			case 0: // a data or ACK hop at a future time
				ev.kind = tevData + arg%2
				k := key(keyFlowStride, arg)
				q.Push(at(arg), k, ev)
				h.Push(at(arg), k, ev)
			case 1, 2: // a timer at the base RTO, or backed off 2x..64x
				ev.kind = tevTimer
				d := rto
				if op == 2 {
					d *= float64(int(2) << (arg % 6))
				}
				k := key(keyTimerBase, arg)
				q.pushTimer(now, d, rto, k, ev)
				h.Push(now+d, k, ev)
			case 3: // a start, probe or wake
				ev.kind = []uint8{tevStart, tevProbe, tevWake}[arg%3]
				k := key([]int64{0, keyProbeBase, keyWakeBase}[arg%3], arg)
				q.Push(at(arg), k, ev)
				h.Push(at(arg), k, ev)
			case 4: // a fault transition
				ev.kind = tevFault
				fault--
				q.Push(at(arg), fault, ev)
				h.Push(at(arg), fault, ev)
			default:
				if h.Len() > 0 {
					pt, pk, _ := q.Peek()
					if ht, hk, _ := h.Peek(); pt != ht || pk != hk {
						t.Fatalf("step %d: tqueue peeks (%g,%d), heap (%g,%d)", i, pt, pk, ht, hk)
					}
					pop(i)
				}
			}
			if q.Len() != h.Len() {
				t.Fatalf("step %d: len %d vs %d", i, q.Len(), h.Len())
			}
		}
		if _, _, _, ok := q.popBefore(now); ok {
			t.Fatal("popBefore(now) popped an event at or after now")
		}
		for h.Len() > 0 {
			pop(len(ops))
		}
		if _, _, _, ok := q.popBefore(now + 1e9); ok {
			t.Fatal("popBefore popped from an empty queue")
		}
	})
}
