package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// conns is the number of connections (and sending goroutines) the
// generator uses: one per core of the benchmark host, which the server
// shares.
const conns = 2

// backlogLimit is how far the generator's backlog may grow over a
// max_rps step: the 5 ms latency limit it is defined against.
const backlogLimit = 5 * time.Millisecond

// client sends /v1/predict calls over conns keep-alive connections,
// one per sender, so a request that finds both busy waits for one in
// the generator's own queue, where that wait is measured.
type client struct {
	base    string
	senders [conns]*http.Client
}

func newClient(addr string) *client {
	c := &client{base: "http://" + addr}
	for i := range c.senders {
		c.senders[i] = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return c
}

func (c *client) close() {
	for _, s := range c.senders {
		s.CloseIdleConnections()
	}
}

// outcome is one request's timeline, in offsets from the phase start.
type outcome struct {
	due   time.Duration // start + i/rate: when the request should have been sent
	start time.Duration // when a sender sent it
	end   time.Duration // when its response was fully read
	late  time.Duration // how late the generator woke for a request that found a free sender
	ok    bool
	id    string // X-Request-Id, traced phases only
	body  []byte // response body, sampled requests only
}

func (o *outcome) latency() time.Duration { return o.end - o.due }

// phase is one open-loop run: request i is due at i/rate seconds after
// the phase starts, whatever happened to earlier requests.
type phase struct {
	reqs   []request
	rate   float64
	traced string       // non-empty: X-Request-Id prefix, and ids are recorded
	sample []bool       // sample[i]: keep request i's response body for the output check
	stop   *atomic.Bool // optional: senders stop taking requests once set
	out    []outcome
	next   atomic.Int64
	taken  atomic.Int64
	errMu  sync.Mutex
	errs   []string
}

// run executes p and returns once every request taken has completed.
func (c *client) run(p *phase) {
	p.out = make([]outcome, len(p.reqs))
	var wg sync.WaitGroup
	sw := obs.Start()
	for i := range c.senders {
		wg.Add(1)
		go c.send(p, sw, c.senders[i], &wg)
	}
	wg.Wait()
	n := int(p.taken.Load())
	p.out = p.out[:n]
	p.reqs = p.reqs[:n]
}

// send is one sender: it takes requests in index order, sleeps until
// each is due, and records its timeline as offsets from sw.
func (c *client) send(p *phase, sw obs.Stopwatch, hc *http.Client, wg *sync.WaitGroup) {
	defer wg.Done()
	var buf bytes.Buffer
	for {
		if p.stop != nil && p.stop.Load() {
			return
		}
		i := int(p.next.Add(1)) - 1
		if i >= len(p.reqs) {
			return
		}
		p.taken.Add(1)
		o := &p.out[i]
		o.due = time.Duration(float64(i) / p.rate * float64(time.Second))
		now := sw.Elapsed()
		if now < o.due {
			sleep(o.due - now)
			now = sw.Elapsed()
			o.late = now - o.due
		}
		o.start = now
		if p.traced != "" {
			o.id = fmt.Sprintf("%s-%d", p.traced, i)
		}
		buf.Reset()
		err := c.post(hc, p.reqs[i].body, o.id, &buf)
		o.end = sw.Elapsed()
		if err != nil {
			p.noteErr(err)
			continue
		}
		o.ok = true
		if p.sample != nil && p.sample[i] {
			o.body = append([]byte(nil), buf.Bytes()...)
		}
	}
}

// sleep blocks the calling thread for d with the kernel's timer
// precision. time.Sleep is avoided here: an otherwise idle Go process
// waits for timers in epoll with millisecond resolution, which would
// make the generator itself up to a millisecond late on every request.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func (p *phase) noteErr(err error) {
	p.errMu.Lock()
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
	p.errMu.Unlock()
}

// post sends one /v1/predict call and reads the whole reply into buf.
func (c *client) post(hc *http.Client, body []byte, id string, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	_, err = io.Copy(buf, resp.Body)
	cerr := resp.Body.Close()
	if err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return err
}

// stats summarizes a phase.
type stats struct {
	attempted, failed int
	lat               []float64 // successful latencies from due time, ms, sorted
	latePct99         float64   // ms: p99 of generator lateness
	connWaitP99       float64   // ms: p99 of the wait for a free connection
}

func summarize(p *phase) stats {
	s := stats{attempted: len(p.out)}
	var late, wait []float64
	for i := range p.out {
		o := &p.out[i]
		if !o.ok {
			s.failed++
			continue
		}
		s.lat = append(s.lat, ms(o.latency()))
		late = append(late, ms(o.late))
		wait = append(wait, ms(o.start-o.due-o.late))
	}
	sort.Float64s(s.lat)
	sort.Float64s(late)
	sort.Float64s(wait)
	s.latePct99 = quantile(late, 0.99)
	s.connWaitP99 = quantile(wait, 0.99)
	return s
}

func (s stats) p(q float64) float64 { return quantile(s.lat, q) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// backlogGrowth is how much the generator's backlog grew over a phase:
// the median lag (send time minus due time) of its last third of
// requests minus that of its first third, in ms. Below capacity it
// stays near zero, as the queue a stall of the host builds drains
// again; beyond capacity it grows with the phase, by (rate/capacity-1)
// times its length.
func backlogGrowth(p *phase) float64 {
	third := len(p.out) / 3
	if third == 0 {
		return 0
	}
	lags := func(os []outcome) []float64 {
		out := make([]float64, len(os))
		for i := range os {
			out[i] = ms(os[i].start - os[i].due)
		}
		return out
	}
	return median(lags(p.out[len(p.out)-third:])) - median(lags(p.out[:third]))
}

// searchMaxRPS returns the highest offered rate at which the
// generator's backlog does not grow by more than backlogLimit over a
// step: the rate the server, behind conns connections, keeps up with.
// It runs one step of the given length at each rate of a geometric
// sweep around start, extends the sweep until it brackets the limit,
// makes the growth non-decreasing in the rate (pool adjacent
// violators), and finds where it crosses the limit.
// Fitting the whole sweep, rather than bisecting on single steps, keeps
// one step that a stall of the host spoiled from deciding the answer.
// The answer is the capacity the first step over the limit implies.
func searchMaxRPS(c *client, s *stream, start float64, step time.Duration, sampler func(int) []bool, keep func(*phase)) (float64, error) {
	const (
		ratio      = 1.2
		below      = 1 // sweep start*ratio^-below ... start*ratio^above
		above      = 4
		extensions = 6
	)
	measure := func(rate float64) float64 {
		n := int(rate * step.Seconds())
		p := &phase{reqs: s.take(n), rate: rate, sample: sampler(n)}
		c.run(p)
		keep(p)
		g := backlogGrowth(p)
		progress("  sweep %.0f rps: p50 %.2f ms, backlog growth %.2f ms", rate, summarize(p).p(0.5), g)
		return g
	}
	limit := ms(backlogLimit)
	var rates, growth []float64
	for k := -below; k <= above; k++ {
		r := start * math.Pow(ratio, float64(k))
		rates, growth = append(rates, r), append(growth, measure(r))
	}
extend:
	for e := 0; e < extensions; e++ {
		fit := monotone(growth)
		switch {
		case fit[len(fit)-1] <= limit:
			r := rates[len(rates)-1] * ratio
			rates, growth = append(rates, r), append(growth, measure(r))
		case fit[0] > limit:
			r := rates[0] / ratio
			rates, growth = append([]float64{r}, rates...), append([]float64{measure(r)}, growth...)
		default:
			break extend
		}
	}
	fit := monotone(growth)
	if fit[0] > limit || fit[len(fit)-1] <= limit {
		return 0, fmt.Errorf("max_rps sweep %.0f-%.0f rps does not bracket the backlog limit", rates[0], rates[len(rates)-1])
	}
	i := 0
	for fit[i+1] <= limit {
		i++
	}
	// Beyond capacity C the sender falls behind by 1/C - 1/r per
	// request, so between the medians of the first and last thirds of a
	// step of length T the backlog grows by g = (2T/3)(r/C - 1). The
	// first step over the limit therefore gives C directly, rather than
	// only a bracket one sweep ratio wide; the step below it passed, so
	// C is at least its rate.
	twoThirds := ms(step) * 2 / 3
	return math.Max(rates[i], rates[i+1]/(1+fit[i+1]/twoThirds)), nil
}

// monotone returns the non-decreasing sequence closest to xs in least
// squares (pool adjacent violators).
func monotone(xs []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var blocks []block
	for _, x := range xs {
		blocks = append(blocks, block{x, 1})
		for len(blocks) > 1 {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			blocks = append(blocks[:len(blocks)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(xs))
	for _, b := range blocks {
		for j := 0; j < b.n; j++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}
