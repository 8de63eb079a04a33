package serve

import (
	"context"
	"sync"
)

// admission is the service's load front door, layered in front of each
// engine's scheduler:
//
//	queue   — one buffered channel bounding jobs in the building
//	          (waiting + running, all tenants). A full queue answers
//	          429 immediately instead of queueing unboundedly.
//	tenants — a semaphore per tenant name capping one tenant's admitted
//	          jobs, so a flood from one client waits behind its own cap
//	          while other tenants keep flowing. Acquisition blocks but
//	          honors the job's deadline context.
//
// Past admission, the engine's core.Scheduler enforces the global
// MaxInflight.
type admission struct {
	queue     chan struct{}
	tenantCap int

	mu      sync.Mutex
	tenants map[string]*tenantSem
}

// tenantSem is one tenant's inflight semaphore, reference-counted so
// idle tenants do not accumulate in the map forever.
type tenantSem struct {
	slots chan struct{}
	refs  int
}

func newAdmission(queueDepth, tenantCap int) *admission {
	return &admission{
		queue:     make(chan struct{}, queueDepth),
		tenantCap: tenantCap,
		tenants:   make(map[string]*tenantSem),
	}
}

// admissionStatus says why begin refused a job.
type admissionStatus int

const (
	admitOK admissionStatus = iota
	admitQueueFull
	admitDeadline
)

// begin admits one job for tenant (empty means the anonymous tenant).
// On admitOK the caller must call the returned release exactly once.
func (a *admission) begin(ctx context.Context, tenant string) (release func(), st admissionStatus) {
	select {
	case a.queue <- struct{}{}:
	default:
		return nil, admitQueueFull
	}
	sem := a.retain(tenant)
	select {
	case sem.slots <- struct{}{}:
	case <-ctx.Done():
		a.release(tenant)
		<-a.queue
		return nil, admitDeadline
	}
	return func() {
		<-sem.slots
		a.release(tenant)
		<-a.queue
	}, admitOK
}

// Depth reports how many jobs currently hold queue slots, and the cap.
func (a *admission) depth() (held, capacity int) {
	return len(a.queue), cap(a.queue)
}

func (a *admission) retain(tenant string) *tenantSem {
	a.mu.Lock()
	defer a.mu.Unlock()
	sem := a.tenants[tenant]
	if sem == nil {
		sem = &tenantSem{slots: make(chan struct{}, a.tenantCap)}
		a.tenants[tenant] = sem
	}
	sem.refs++
	return sem
}

func (a *admission) release(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sem := a.tenants[tenant]
	sem.refs--
	if sem.refs == 0 {
		delete(a.tenants, tenant)
	}
}
