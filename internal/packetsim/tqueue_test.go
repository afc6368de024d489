package packetsim

import (
	"testing"

	"repro/internal/eventq"
)

// FuzzTransportQueueMatchesHeap replays a byte-driven sequence of pushes and
// pops through tqueue and a single eventq.Queue holding the same keyed
// events, and requires identical pops. It keeps the engine's contract: now
// is the last popped time, every push lands at or after it, ordinals grow
// with every push, and fault transitions carry negative seqs. Each op takes
// two bytes, an opcode and an argument. Times fall on a 0.25 grid with RTO
// 1, so hops, base-RTO timers, backed-off timers and far events tie across
// all three sources.
func FuzzTransportQueueMatchesHeap(f *testing.F) {
	f.Add([]byte{1, 0, 0, 4, 3, 4, 5, 0, 1, 0, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{1, 0, 2, 0, 5, 0, 1, 0, 0, 8, 5, 0, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{4, 4, 4, 4, 1, 0, 0, 4, 3, 4, 2, 1, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{0, 3, 1, 0, 5, 0, 1, 0, 2, 2, 5, 0, 1, 0, 0, 12, 5, 0, 5, 0, 5, 0})
	const rto = 1.0
	f.Fuzz(func(t *testing.T, ops []byte) {
		var (
			q     tqueue
			h     eventq.Queue[tevent]
			now   float64
			ord   int64
			fault int64
		)
		at := func(arg byte) float64 { return now + float64(arg%16)*0.25 }
		pop := func(step int) {
			qt, qs, qe := q.pop()
			ht, hs, he := h.Pop()
			if qt != ht || qs != hs || qe != he {
				t.Fatalf("step %d: tqueue popped (%g,%d,%+v), heap (%g,%d,%+v)", step, qt, qs, qe, ht, hs, he)
			}
			now = qt
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, ops[i+1]
			ev := tevent{flow: int32(arg), gen: int32(i)}
			switch op {
			case 0: // a data or ACK hop at a future time
				ev.kind = tevData + arg%2
				ord++
				q.push(at(arg), ord, ev)
				h.Push(at(arg), ord, ev)
			case 1, 2: // a timer at the base RTO, or backed off 2x..64x
				ev.kind = tevTimer
				d := rto
				if op == 2 {
					d *= float64(int(2) << (arg % 6))
				}
				ord++
				q.pushTimer(now, d, rto, ord, ev)
				h.Push(now+d, ord, ev)
			case 3: // a start, probe or wake
				ev.kind = []uint8{tevStart, tevProbe, tevWake}[arg%3]
				ord++
				q.push(at(arg), ord, ev)
				h.Push(at(arg), ord, ev)
			case 4: // a fault transition
				ev.kind = tevFault
				fault--
				q.push(at(arg), fault, ev)
				h.Push(at(arg), fault, ev)
			default:
				if h.Len() > 0 {
					pop(i)
				}
			}
			if q.len() != h.Len() {
				t.Fatalf("step %d: len %d vs %d", i, q.len(), h.Len())
			}
		}
		for h.Len() > 0 {
			pop(len(ops))
		}
	})
}
