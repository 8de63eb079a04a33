package serve

import (
	"sync"
	"time"

	"pgxsort/internal/core"
)

// jobLogDepth is how many finished jobs /debug/jobs remembers.
const jobLogDepth = 256

// jobRecord is one finished request as /debug/jobs reports it: identity,
// outcome and the scheduler trace condensed to per-stage spans. It is a
// plain JSON-marshalable snapshot — nothing in it aliases engine state.
type jobRecord struct {
	ID       string  `json:"id"`
	Tenant   string  `json:"tenant,omitempty"`
	Endpoint string  `json:"endpoint"`
	KeyType  string  `json:"key_type"`
	N        int     `json:"n"`
	Status   int     `json:"status"`
	Err      string  `json:"error,omitempty"`
	Cached   bool    `json:"cached,omitempty"`
	Elapsed  float64 `json:"elapsed_ms"`

	AdmitWaitMS float64     `json:"admit_wait_ms,omitempty"`
	Stages      []stageSpan `json:"stages,omitempty"`
}

// stageSpan is one scheduler stage of one job: offsets from the job's
// scheduler epoch.
type stageSpan struct {
	Stage   string  `json:"stage"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// jobLog is a fixed-size ring of finished jobs, newest first on read.
type jobLog struct {
	mu   sync.Mutex
	ring []jobRecord
	next int
	size int
}

func newJobLog(depth int) *jobLog {
	return &jobLog{ring: make([]jobRecord, depth)}
}

func (l *jobLog) add(r jobRecord) {
	l.mu.Lock()
	l.ring[l.next] = r
	l.next = (l.next + 1) % len(l.ring)
	if l.size < len(l.ring) {
		l.size++
	}
	l.mu.Unlock()
}

// list returns the remembered jobs, newest first.
func (l *jobLog) list() []jobRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]jobRecord, 0, l.size)
	for i := 1; i <= l.size; i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// newJobRecord assembles the log entry for one finished request. A
// request refused before its key domain or dataset resolved records
// neither.
func newJobRecord(j *job, status int, err error, cached bool, elapsed time.Duration, rep *core.Report) jobRecord {
	r := jobRecord{
		ID:       j.id,
		Tenant:   j.req.Tenant,
		Endpoint: j.endpoint,
		Status:   status,
		Cached:   cached,
		Elapsed:  ms(elapsed),
	}
	if j.b != nil {
		r.KeyType = string(j.b.keyType())
	}
	if j.ds != nil {
		r.N = j.ds.n
	}
	if err != nil {
		r.Err = err.Error()
	}
	if rep != nil && rep.Sched.Pipelined {
		r.AdmitWaitMS = ms(rep.Sched.AdmitWait)
		for st := core.SchedStage(0); st < core.NumSchedStages; st++ {
			r.Stages = append(r.Stages, stageSpan{
				Stage:   st.String(),
				StartMS: ms(rep.Sched.StageStart[st]),
				EndMS:   ms(rep.Sched.StageEnd[st]),
			})
		}
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
