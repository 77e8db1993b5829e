package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"decvec/internal/report"
	"decvec/internal/server"
	"decvec/internal/simcache"
)

// daemon is an in-process dvad on a loopback port.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error // receives Serve's result once it returns
}

// startDaemon serves a fresh dvad over the store at dir. Its handler and its
// admission gate record spans while the tracer is on.
func startDaemon(dir string, scale float64, tr *tracer) (*daemon, error) {
	store, err := simcache.Open(dir, simcache.Options{})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Scale: scale, Store: store})
	srv.Suite().Gate = tracedGate{t: tr, inner: srv.Suite().Gate}
	h := tracedHandler(tr, srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // nothing was served; only the GC remains
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits until its serving goroutine has ended.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// stats reads the daemon's /statsz counters over HTTP, as an operator would.
func (d *daemon) stats(c *http.Client) (report.ServerMetric, error) {
	var m report.ServerMetric
	resp, err := c.Get(d.url + "/statsz")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/statsz: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("/statsz: %w", err)
	}
	if m.Cache == nil {
		return m, fmt.Errorf("/statsz: no cache counters")
	}
	return m, nil
}

// transport returns a client transport holding at most conns connections,
// wrapped to record client spans while the tracer is on.
func transport(conns int, tr *tracer) (http.RoundTripper, *http.Transport) {
	base := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return tracedTransport{t: tr, base: base}, base
}
