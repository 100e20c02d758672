package sim

import "time"

// SerialResource models a resource that processes requests one at a time,
// each with a caller-provided virtual service time.
//
// It is the building block for the Tendermint RPC service model: the
// paper's central finding is that Tendermint is "unable to process queries
// in parallel, requiring the relayer to wait while its requests for data
// are processed one by one" (§IV-B). Requests are queued FIFO; the done
// callback fires when the request's service completes.
type SerialResource struct {
	sched *Scheduler

	// busyUntil is the virtual time at which the resource frees up.
	busyUntil time.Duration

	// totalBusy accumulates service time, for utilization metrics.
	totalBusy time.Duration
}

// NewSerialResource returns a resource bound to the scheduler's clock.
func NewSerialResource(s *Scheduler) *SerialResource {
	return &SerialResource{sched: s}
}

// BusyTime reports accumulated service time across all requests.
func (r *SerialResource) BusyTime() time.Duration { return r.totalBusy }

// Submit enqueues a request with the given service time. done, which is
// required, fires at the virtual time the request finishes.
func (r *SerialResource) Submit(service time.Duration, done func()) {
	r.SubmitHandler(service, handler(done))
}

// SubmitHandler is Submit for a Handler.
func (r *SerialResource) SubmitHandler(service time.Duration, done Handler) {
	if service < 0 {
		service = 0
	}
	start := r.sched.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	finish := start + service
	r.busyUntil = finish
	r.totalBusy += service
	r.sched.AtHandler(finish, done)
}
