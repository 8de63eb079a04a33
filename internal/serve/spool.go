package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"syscall"
	"time"

	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
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

// spoolError maps a failure to start or write the upload spool: the
// body was fine and the server's disk was not, so never a 4xx — 507 when
// it is full, 500 otherwise.
func spoolError(err error) *apiError {
	if errors.Is(err, syscall.ENOSPC) {
		return &apiError{http.StatusInsufficientStorage, "spool disk is full"}
	}
	return &apiError{http.StatusInternalServerError, fmt.Sprintf("spooling upload: %v", err)}
}

// ingestBinary streams one octet-stream body through the backend's
// incremental decoder; it is the only source that may spool.
func (s *Server) ingestBinary(w http.ResponseWriter, r *http.Request, b backend) (*dataset, *apiError) {
	body := io.Reader(http.MaxBytesReader(w, r.Body, s.maxBody()))
	if s.cfg.UploadTimeout > 0 {
		body = &deadlineReader{r: body, rc: http.NewResponseController(w), timeout: s.cfg.UploadTimeout}
	}
	return b.ingest(body, r.ContentLength, true)
}
