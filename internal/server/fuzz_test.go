package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzServerRequests posts arbitrary bodies to /v1/simulate (sweep false)
// and /v1/sweep (sweep true) through the daemon's handler. No body may
// panic a handler, every answer must carry a status the handlers document,
// and a request refused with a 4xx must not have run a simulation. The
// cell cap is 8, so the committed nine-cell seed is refused, as are the
// seeds in the removed grid and streaming-knob request shapes and the cells
// with iq 1, iq -1 or jitter -1; a seed of cells carrying iq, jitter and
// bypass, on DVA and on REF, runs.
func FuzzServerRequests(f *testing.F) {
	srv := New(Config{Scale: 0.01, MaxSweepPoints: 8})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			f.Errorf("shutdown: %v", err)
		}
	})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, sweep bool, body []byte) {
		path := "/v1/simulate"
		if sweep {
			path = "/v1/sweep"
		}
		before := srv.Suite().Simulations()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		srv.bg.Wait() // a run detached by a timeout lands before the count
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests,
			http.StatusInternalServerError, http.StatusGatewayTimeout:
		default:
			t.Fatalf("%s answered %d (%s)", path, rec.Code, rec.Body.Bytes())
		}
		if rec.Code >= 400 && rec.Code < 500 {
			if n := srv.Suite().Simulations() - before; n != 0 {
				t.Fatalf("%s answered %d after %d simulations", path, rec.Code, n)
			}
		}
	})
}
