package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
)

// The spool-tier failpoint sites. FpSpoolWrite fires before each batch
// append while an upload lands in its run file; FpSpoolRead fires before
// each batch read while the spooled sort re-reads it (threaded through
// core.SpooledInput.ReadSite). Both inject errors that core.Classify
// calls Transient, so the write is retried in place at the ingress (the
// batch is still resident) and the read is retried by the scheduler's
// normal attempt loop — TestSoakFailpointStorm arms them to prove the
// healing path keeps bytes correct.
const (
	FpSpoolWrite = "serve/spool-write"
	FpSpoolRead  = "serve/spool-read"
)

// deadlineReader arms a fresh read deadline before every body read, so
// the timeout bounds inter-chunk stalls rather than whole-upload
// duration: a slow-but-moving client is fine, a stalled one gets 408.
// Transports that cannot set per-request read deadlines (HTTP/2 under
// some configurations, test recorders) disable themselves on the first
// failure and fall back to the server-wide timeouts.
type deadlineReader struct {
	r        io.Reader
	rc       *http.ResponseController
	timeout  time.Duration
	disabled bool
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	if !d.disabled {
		if err := d.rc.SetReadDeadline(time.Now().Add(d.timeout)); err != nil {
			d.disabled = true
		}
	}
	return d.r.Read(p)
}

// uploadError maps a failure to read the request body onto its HTTP
// status: MaxBytesReader trip 413, stalled client 408, stream cut
// mid-key 400.
func uploadError(err error, kt dist.KeyType) *apiError {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return &apiError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds the %d-byte limit", mbe.Limit)}
	case errors.Is(err, os.ErrDeadlineExceeded):
		return &apiError{http.StatusRequestTimeout,
			"upload stalled past the read deadline"}
	case errors.Is(err, keyio.ErrTruncated):
		return badRequest("body is not canonical %s data: %v", kt, err)
	}
	return badRequest("reading body: %v", err)
}

// spoolError maps a failure to write the upload spool: the body was fine
// and the server's disk was not, so never a 4xx — 507 when it is full,
// 500 otherwise.
func spoolError(err error) *apiError {
	if errors.Is(err, syscall.ENOSPC) {
		return &apiError{http.StatusInsufficientStorage, "spool disk is full"}
	}
	return &apiError{http.StatusInternalServerError, fmt.Sprintf("spooling upload: %v", err)}
}

// spoolDir is where upload spools land: the engines' spill dir, so one
// disk budget covers both tiers, or the system temp dir.
func (s *Server) spoolDir() string {
	if s.cfg.SpillDir != "" {
		return s.cfg.SpillDir
	}
	return os.TempDir()
}

// ingestBinary streams one octet-stream body through the backend's
// incremental decoder; it is the only source that may spool.
func (s *Server) ingestBinary(w http.ResponseWriter, r *http.Request, b backend, id string) (*dataset, *apiError) {
	body := io.Reader(http.MaxBytesReader(w, r.Body, s.maxBody()))
	if s.cfg.UploadTimeout > 0 {
		body = &deadlineReader{r: body, rc: http.NewResponseController(w), timeout: s.cfg.UploadTimeout}
	}
	path := filepath.Join(s.spoolDir(), "pgxsortd-upload-"+id+".spool")
	return b.ingest(body, r.ContentLength, path)
}

// uploadBlockBytes sizes the upload spool's blocks to the engine memory
// budget, mirroring the engine's own run-file block sizing: the spooled
// sort's section readers keep two decoded blocks in flight per node, so
// budget-sized servers must not ingest into huge blocks.
func uploadBlockBytes(budget int64) int {
	if budget <= 0 {
		return 0 // spill.DefaultBlockBytes
	}
	bb := budget / 32
	if bb < 4<<10 {
		bb = 4 << 10
	}
	if bb > 128<<10 {
		bb = 128 << 10
	}
	return int(bb)
}
