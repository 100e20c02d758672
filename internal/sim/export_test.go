package sim

// Run loops and probes only this package's tests use: production runs
// go through RunUntil.

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return len(s.queue) }

// Stop halts the run loop after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Run dispatches events until the queue is empty or Stop is called.
// It returns ErrStopped if stopped early, and nil when drained.
func (s *Scheduler) Run() error {
	s.stopped = false
	for len(s.queue) > 0 {
		if s.stopped {
			return ErrStopped
		}
		if s.MaxEvents > 0 && s.processed >= s.MaxEvents {
			return ErrStopped
		}
		s.step()
	}
	return nil
}
