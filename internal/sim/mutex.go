package sim

import "time"

// LockStats aggregates contention statistics for a simulated Mutex.
type LockStats struct {
	Acquisitions uint64
	TotalWait    time.Duration
	TotalHold    time.Duration
	MaxWait      time.Duration
	Contended    uint64 // acquisitions that had to wait
}

// AvgWait returns the mean wait time per lock request.
func (s LockStats) AvgWait() time.Duration {
	if s.Acquisitions == 0 {
		return 0
	}
	return s.TotalWait / time.Duration(s.Acquisitions)
}

// AvgHold returns the mean hold time per lock request.
func (s LockStats) AvgHold() time.Duration {
	if s.Acquisitions == 0 {
		return 0
	}
	return s.TotalHold / time.Duration(s.Acquisitions)
}

// Mutex is a simulated mutual-exclusion lock with FIFO handoff and
// wait/hold accounting. It models contended kernel and user-level locks
// (i_mutex, lru_lock, client_lock) whose queueing behaviour the paper
// measures.
type Mutex struct {
	eng      *Engine
	name     string
	owner    *Proc
	lockedAt time.Duration
	// waiters is a FIFO ring: live entries are waiters[whead:]. Unlock
	// advances whead instead of shifting the slice, so a release is O(1)
	// even under the multi-hundred-waiter i_mutex queues of Fig 1b; the
	// dead prefix is compacted lazily.
	waiters []*Proc
	whead   int
	stats   LockStats
}

// NewMutex creates a named simulated mutex on e.
func NewMutex(e *Engine, name string) *Mutex {
	return &Mutex{eng: e, name: name}
}

// Name returns the lock's debug name.
func (m *Mutex) Name() string { return m.name }

// Stats returns a snapshot of the lock's contention statistics.
func (m *Mutex) Stats() LockStats { return m.stats }

// ResetStats zeroes the accumulated statistics (used at measurement
// window boundaries).
func (m *Mutex) ResetStats() { m.stats = LockStats{} }

// Lock acquires m for p, blocking in FIFO order while it is held.
func (m *Mutex) Lock(p *Proc) {
	since := m.eng.now
	if holder := m.lockOrQueue(p); holder != nil {
		p.park()
		m.granted(p, since, holder)
	}
}

// lockOrQueue takes m for p if it is free and returns nil. Otherwise it
// queues p and returns the holder. Blame attribution: the party
// responsible for the wait is whoever held the lock when p queued, not
// whoever hands it over — under FIFO handoff the final owner may be an
// innocent waiter ahead of p.
func (m *Mutex) lockOrQueue(p *Proc) *Proc {
	m.stats.Acquisitions++
	if m.owner == nil {
		m.owner = p
		m.lockedAt = m.eng.now
		return nil
	}
	m.stats.Contended++
	holder := m.owner
	m.waiters = append(m.waiters, p)
	return holder
}

// granted records the wait of p, queued at since behind holder, once
// Unlock has handed it the lock.
func (m *Mutex) granted(p *Proc, since time.Duration, holder *Proc) {
	wait := m.eng.now - since
	m.stats.TotalWait += wait
	if wait > m.stats.MaxWait {
		m.stats.MaxWait = wait
	}
	p.ReportWait("lock", m.name, holder.name, holder.id, wait)
}

// Unlock releases m, handing ownership directly to the oldest waiter if
// any. Unlocking a mutex not held by p panics: that is always a bug in
// the simulation model.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner on " + m.name)
	}
	m.stats.TotalHold += m.eng.now - m.lockedAt
	if m.whead == len(m.waiters) {
		m.owner = nil
		return
	}
	next := m.waiters[m.whead]
	m.waiters[m.whead] = nil // release the reference
	m.whead++
	switch {
	case m.whead == len(m.waiters):
		// Queue drained: reuse the backing array from the start.
		m.waiters = m.waiters[:0]
		m.whead = 0
	case m.whead >= 64 && m.whead*2 >= len(m.waiters):
		// The dead prefix dominates a large backlog: compact once.
		// Amortized O(1) per release since the prefix must regrow past
		// the live tail before the next compaction.
		n := copy(m.waiters, m.waiters[m.whead:])
		clearTail := m.waiters[n:]
		for i := range clearTail {
			clearTail[i] = nil
		}
		m.waiters = m.waiters[:n]
		m.whead = 0
	}
	m.owner = next
	m.lockedAt = m.eng.now
	m.eng.scheduleWake(next, m.eng.now)
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Waiters returns the number of processes queued on the mutex.
func (m *Mutex) Waiters() int { return len(m.waiters) - m.whead }
