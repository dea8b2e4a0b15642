package main

// The fleet under test: one route.Router in front of two serve.Server
// backends on loopback, each behind an http.Server. Every component
// uses its default Config with request logging off; the router gets the
// deep idle pool and the started poll loop that cmd/scroute gives it.
// In a traced run each handler is wrapped by the tracer; the program
// itself is not changed.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/route"
	"repro/internal/serve"
)

const backendCount = 2

type fleet struct {
	routerURL   string
	backendURLs []string
	router      *route.Router
	backends    []*serve.Server
	servers     []*http.Server // backends first, router last
	transport   *http.Transport
	stopPoll    context.CancelFunc
	serving     sync.WaitGroup
}

// startFleet starts the fleet; tr, when non-nil, wraps every handler.
func startFleet(tr *tracer) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < backendCount; i++ {
		srv := serve.NewServer(serve.Config{})
		f.backends = append(f.backends, srv)
		url, err := f.listen(tr.wrap(fmt.Sprintf("backend-%d", i), srv.Handler()))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backendURLs = append(f.backendURLs, url)
	}
	f.transport = &http.Transport{MaxIdleConns: 1024, MaxIdleConnsPerHost: 512}
	rt, err := route.NewRouter(route.Config{
		Backends: f.backendURLs,
		Client:   &http.Client{Transport: f.transport},
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rt
	ctx, cancel := context.WithCancel(context.Background())
	f.stopPoll = cancel
	rt.Start(ctx)
	if f.routerURL, err = f.listen(tr.wrap(layerRoute, rt.Handler())); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop closes the router's listener and connections, waits for its
// hedge-loser settlement, closes the backends' and drains their in-flight
// requests, and waits for every serving goroutine to return. The driver
// has stopped sending by then, so closing loses no request; it also
// drops the connections a transport dialed but never used, which
// http.Server.Shutdown would wait five seconds for.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.stopPoll != nil {
		f.stopPoll()
	}
	var errs []error
	for i := len(f.servers) - 1; i >= 0; i-- {
		if err := f.servers[i].Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if f.router != nil {
		f.router.Wait()
	}
	for _, b := range f.backends {
		if err := b.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	f.serving.Wait()
	return errors.Join(errs...)
}
