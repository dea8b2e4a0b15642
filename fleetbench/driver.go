package main

// The load driver. It owns at most nproc connections to the router and
// sends the workload's seeded request sequence either closed loop (each
// client sends its next request when the previous one is answered) or
// open loop (requests are due on a fixed schedule and timed from their
// due time, so a stall also charges the requests queued behind it).

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request; it only matters if the fleet hangs.
const requestTimeout = 60 * time.Second

type driver struct {
	w      *workload
	base   string // router base URL
	client *http.Client
	tr     *http.Transport
	pos    atomic.Int64 // next position in w.seq
	ids    atomic.Int64 // request ID counter
}

func newDriver(w *workload, base string, conns int) *driver {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &driver{w: w, base: base, client: &http.Client{Transport: tr}, tr: tr}
}

func (d *driver) close() { d.tr.CloseIdleConnections() }

// next returns the index of the next request in the seeded sequence.
func (d *driver) next() int {
	p := d.pos.Add(1) - 1
	return d.w.seq[int(p%int64(len(d.w.seq)))]
}

// do sends request i and reads the whole response into buf.
func (d *driver) do(i int, buf *bytes.Buffer) (status int, err error) {
	rq := d.w.reqs[i]
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "fb-"+strconv.FormatInt(d.ids.Add(1), 10))
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// sample is one attempted request of a measured window.
type sample struct {
	at time.Duration // send time (closed loop) or due time (open loop) from the window start
	ms float64       // latency
	ok bool          // 2xx and correct
}

// phase is what one measured window observed.
type phase struct {
	samples   []sample
	lag       []float64 // ms the generator sent late, open loop only
	attempted int
	ok        int // 2xx and correct
	non2xx    int
	transport int
	wrong     int // 2xx that failed the output check
	firstErr  error
	window    time.Duration // length of the measured window
	last      time.Duration // last completion, from the window start
	reqBytes  int64
	respBytes int64
	sent      []int // correct responses per distinct request
}

func newPhase(n int) *phase { return &phase{sent: make([]int, n)} }

func (p *phase) failed() int { return p.non2xx + p.transport + p.wrong }

// record files one request's outcome.
func (p *phase) record(d *driver, i int, at time.Duration, status int, err error, resp []byte, lat time.Duration) {
	p.attempted++
	ms := float64(lat) / float64(time.Millisecond)
	p.reqBytes += int64(len(d.w.reqs[i].body))
	p.respBytes += int64(len(resp))
	switch {
	case err != nil:
		p.transport++
		p.note(fmt.Errorf("request %d: %w", i, err))
	case status/100 != 2:
		p.non2xx++
		p.note(fmt.Errorf("request %d: status %d: %.200s", i, status, resp))
	default:
		if cerr := d.w.check.check(i, resp); cerr != nil {
			p.wrong++
			p.note(cerr)
			break
		}
		p.ok++
		p.sent[i]++
		p.samples = append(p.samples, sample{at: at, ms: ms, ok: true})
		return
	}
	p.samples = append(p.samples, sample{at: at, ms: ms})
}

// latencies returns the latencies of the samples at or after from and
// before to.
func (p *phase) latencies(from, to time.Duration) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.at >= from && s.at < to {
			out = append(out, s.ms)
		}
	}
	return out
}

// okIn counts the correct samples at or after from and before to.
func (p *phase) okIn(from, to time.Duration) int {
	n := 0
	for _, s := range p.samples {
		if s.ok && s.at >= from && s.at < to {
			n++
		}
	}
	return n
}

func (p *phase) note(err error) {
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// merge folds a worker's phase into p.
func (p *phase) merge(o *phase) {
	p.samples = append(p.samples, o.samples...)
	p.lag = append(p.lag, o.lag...)
	p.attempted += o.attempted
	p.ok += o.ok
	p.non2xx += o.non2xx
	p.transport += o.transport
	p.wrong += o.wrong
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
	p.window = max(p.window, o.window)
	p.last = max(p.last, o.last)
	p.reqBytes += o.reqBytes
	p.respBytes += o.respBytes
	for i, n := range o.sent {
		p.sent[i] += n
	}
}

// then appends o's window after p's, as if it followed without a gap:
// o's sample times and last completion move by p's window, and the
// windows add up. o is left unchanged.
func (p *phase) then(o *phase) {
	off := p.window
	moved := *o
	moved.samples = make([]sample, len(o.samples))
	for i, s := range o.samples {
		s.at += off
		moved.samples[i] = s
	}
	moved.window += off
	moved.last += off
	p.merge(&moved)
}

// warm sends every distinct request once over the driver's connections
// and fails on any incorrect answer. It fills the fleet's engine caches
// and connection pools and records the checker's references.
func (d *driver) warm() error {
	n := len(d.w.reqs)
	var idx atomic.Int64
	errs := make([]error, d.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < d.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := new(bytes.Buffer)
			for {
				i := int(idx.Add(1) - 1)
				if i >= n || errs[c] != nil {
					return
				}
				status, err := d.do(i, buf)
				switch {
				case err != nil:
					errs[c] = fmt.Errorf("warm-up request %d: %w", i, err)
				case status/100 != 2:
					errs[c] = fmt.Errorf("warm-up request %d: status %d: %.200s", i, status, buf.Bytes())
				default:
					errs[c] = d.w.check.check(i, buf.Bytes())
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run measures one window of the workload's loop.
func (d *driver) run(window time.Duration) *phase {
	var p *phase
	if d.w.open {
		p = d.openLoop(window)
	} else {
		p = d.closedLoop(window)
	}
	p.window = window
	return p
}

// closedLoop runs w.clients clients back to back until the window ends;
// latency runs from send to the last response byte.
func (d *driver) closedLoop(window time.Duration) *phase {
	total := newPhase(len(d.w.reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < d.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPhase(len(d.w.reqs))
			buf := new(bytes.Buffer)
			for time.Since(start) < window {
				i := d.next()
				t0 := time.Now()
				status, err := d.do(i, buf)
				p.record(d, i, t0.Sub(start), status, err, buf.Bytes(), time.Since(t0))
			}
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// openLoop sends requests due every 1/rate seconds over w.clients
// connections. Latency runs from each request's due time, so time spent
// waiting for a free connection counts. Lag is how late the generator
// sent a request once it was both due and had a free connection: it is
// the generator's own lateness, not the system's backlog.
func (d *driver) openLoop(window time.Duration) *phase {
	interval := time.Duration(float64(time.Second) / d.w.rate)
	total := newPhase(len(d.w.reqs))
	var slot atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < d.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPhase(len(d.w.reqs))
			buf := new(bytes.Buffer)
			for {
				due := time.Duration(slot.Add(1)-1) * interval
				if due >= window {
					break
				}
				free := time.Since(start)
				if due > free {
					time.Sleep(due - free)
				}
				send := time.Since(start)
				p.lag = append(p.lag, float64(send-max(due, free))/float64(time.Millisecond))
				i := d.next()
				status, err := d.do(i, buf)
				end := time.Since(start)
				p.record(d, i, due, status, err, buf.Bytes(), end-due)
				p.last = end
			}
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}
