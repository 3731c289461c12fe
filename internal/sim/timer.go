package sim

// timerHeap holds the pending timeouts of WaitQueue waiters. It is a
// binary min-heap ordered by (at, seq), like eventHeap, but indexed:
// each waiter records its own position so a waiter woken before its
// deadline removes its timeout in O(log n) instead of leaving a stale
// event behind. The engine merges the two heaps by (at, seq), and
// timers draw their seq from the engine counter when armed, so a
// timeout fires exactly where the equivalent After callback would.
type timerHeap []*qWaiter

func (h timerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *timerHeap) push(w *qWaiter) {
	w.idx = len(*h)
	*h = append(*h, w)
	h.up(w.idx)
}

// remove deletes the timer at index i and marks it not pending.
func (h *timerHeap) remove(i int) *qWaiter {
	old := *h
	n := len(old) - 1
	w := old[i]
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	*h = old[:n]
	if i != n {
		if !h.down(i) {
			h.up(i)
		}
	}
	w.idx = -1
	return w
}

func (h timerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts i toward the leaves and reports whether it moved.
func (h timerHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return i > start
}

// armTimer schedules w's timeout at now+w.d.
func (e *Engine) armTimer(w *qWaiter) {
	e.seq++
	w.at, w.seq = e.now+max(w.d, 0), e.seq
	e.timers.push(w)
	e.stats.TimeoutsArmed++
	if n := len(e.timers); n > e.stats.TimerHeapHigh {
		e.stats.TimerHeapHigh = n
	}
}

// cancelTimer removes w's pending timeout, if any.
func (e *Engine) cancelTimer(w *qWaiter) {
	if w.idx >= 0 {
		e.timers.remove(w.idx)
		e.stats.TimeoutsCancelled++
	}
}

// timerFirst reports whether the earliest pending timeout precedes the
// top of the event heap in (at, seq) order.
func (e *Engine) timerFirst() bool {
	if len(e.timers) == 0 {
		return false
	}
	if len(e.events) == 0 {
		return true
	}
	w, ev := e.timers[0], &e.events[0]
	return w.at < ev.at || (w.at == ev.at && w.seq < ev.seq)
}

// fireTimer pops the earliest timeout and expires its waiter. It is
// traced as the callback the timeout is.
func (e *Engine) fireTimer() {
	w := e.timers.remove(0)
	if w.at > e.now {
		e.now = w.at
	}
	e.trace(TraceEvent{At: e.now, Kind: TraceCallback})
	e.stats.Callbacks++
	e.stats.TimeoutsFired++
	w.q.expire(w)
}
