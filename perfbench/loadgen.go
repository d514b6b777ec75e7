package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"evilbloom/internal/cachedigest"
	"evilbloom/internal/resp"
	"evilbloom/internal/service"
)

// window is one measured window's record: latencies of the answered item
// commands in ns (all, and writes only) and the items they acknowledged.
type window struct {
	lat, wlat []uint32
	acked     int64
}

// tally is one connection's record of a phase: its window and item counts
// and check outcomes.
type tally struct {
	window
	items     int64    // items in commands sent
	failed    int64    // items refused, failed or answered wrongly
	mutated   int64    // items in answered writes
	probes    int64    // never-added items tested
	falsePos  int64    // never-added items answered present
	violation []string // correctness violations, capped
	polls     pollTally
}

type pollTally struct {
	n, deltas int
	lat       []uint32
}

func (t *tally) violate(format string, args ...any) {
	if len(t.violation) < 8 {
		t.violation = append(t.violation, fmt.Sprintf(format, args...))
	}
}

// merge adds o's counts to t; with latencies, o's window as well.
func (t *tally) merge(o *tally, latencies bool) {
	if latencies {
		t.lat = append(t.lat, o.lat...)
		t.wlat = append(t.wlat, o.wlat...)
		t.acked += o.acked
	}
	t.items += o.items
	t.failed += o.failed
	t.mutated += o.mutated
	t.probes += o.probes
	t.falsePos += o.falsePos
	for _, v := range o.violation {
		t.violate("%s", v)
	}
	t.polls.n += o.polls.n
	t.polls.deltas += o.polls.deltas
	t.polls.lat = append(t.polls.lat, o.polls.lat...)
}

func nsBetween(from, to time.Time) uint32 {
	d := to.Sub(from)
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// checkReply checks an item command's answers against the stream's model.
func checkReply(t *tally, kind opKind, items [][]byte, live, got []bool) {
	switch kind {
	case opTest:
		for i, present := range got {
			if live[i] {
				if !present {
					t.failed++
					t.violate("false negative: live item %q answered absent", items[i])
				}
				continue
			}
			t.probes++
			if present {
				t.falsePos++
			}
		}
	case opRemove:
		for i, ok := range got {
			if !ok {
				t.failed++
				t.violate("removal of live item %q refused", items[i])
			}
		}
	}
}

// worker runs one connection's closed loop. Each phase runs until its
// command budget is spent (budget > 0) or its deadline passes.
type worker struct {
	w      *workload
	st     *stream
	rc     *resp.Client // the RESP plane's item connection
	hc     *itemConn    // the HTTP plane's
	host   string
	digest *digestPoller // durable-churn's sealed mesh peer, else nil
	writes int

	enc itemsBody
	buf []byte
	got []bool
	js  struct {
		Present []bool `json:"present"`
		Removed []bool `json:"removed"`
		Added   int    `json:"added"`
	}
	q []pending
}

// pending is a sent command awaiting its reply.
type pending struct {
	kind  opKind
	items [][]byte
	live  []bool
}

func (d *worker) run(ctx context.Context, budget int, deadline time.Time, t *tally) error {
	more := func(sent int) bool {
		if ctx.Err() != nil {
			return false
		}
		if budget > 0 {
			return sent < budget
		}
		return time.Now().Before(deadline)
	}
	if d.w.plane == "http" {
		for sent := 0; more(sent); sent++ {
			if err := d.httpCommand(t); err != nil {
				return err
			}
		}
		return nil
	}
	return d.respLoop(more, t)
}

// respLoop sends window commands at once, then waits for all their replies
// before sending the next window: every command of a window waits for the
// same server passes, so the latency distribution has one mode.
func (d *worker) respLoop(more func(int) bool, t *tally) error {
	if len(d.q) < d.w.window {
		d.q = make([]pending, d.w.window)
	}
	for sent := 0; more(sent); {
		n := 0
		for ; n < d.w.window && more(sent); n++ {
			o := d.st.next()
			d.rc.SendItems(respCommandName(o.kind), d.w.filter, o.items)
			p := &d.q[n]
			p.kind = o.kind
			p.items = append(p.items[:0], o.items...)
			p.live = append(p.live[:0], o.live...)
			sent++
			t.items += int64(len(o.items))
		}
		start := time.Now()
		if err := d.rc.Flush(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			p := &d.q[i]
			r, err := d.rc.Receive()
			if err == nil {
				d.got, err = itemAnswers(r, len(p.items), d.got[:0])
			}
			if err := d.account(t, p.kind, p.items, p.live, start, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// account records one reply: latency, refusals and the model checks, then
// polls the digest when a write completes a poll interval.
func (d *worker) account(t *tally, kind opKind, items [][]byte, live []bool, sent time.Time, err error) error {
	done := time.Now()
	var refused *replyError
	switch {
	case errors.As(err, &refused):
		t.failed += int64(len(items))
		t.violate("%s refused: %v", respCommandName(kind), err)
		return nil
	case err != nil:
		return err
	case len(d.got) != len(items):
		return fmt.Errorf("%d answers for %d items", len(d.got), len(items))
	}
	lat := nsBetween(sent, done)
	t.lat = append(t.lat, lat)
	t.acked += int64(len(items))
	if kind.write() {
		t.wlat = append(t.wlat, lat)
		t.mutated += int64(len(items))
	}
	checkReply(t, kind, items, live, d.got)
	if kind.write() && d.digest != nil {
		d.writes++
		if d.writes%d.w.digestEvery == 0 {
			return d.digest.poll(d.st, &t.polls, t)
		}
	}
	return nil
}

// httpCommand sends one item batch over HTTP and checks the answer.
func (d *worker) httpCommand(t *tally) error {
	o := d.st.next()
	body, err := d.enc.encode(o.items)
	if err != nil {
		return err
	}
	d.buf = appendItemRequest(d.buf[:0], d.host, d.w.filter, o.kind, body)
	t.items += int64(len(o.items))
	start := time.Now()
	status, resBody, err := d.hc.roundTrip(d.buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return d.account(t, o.kind, o.items, o.live, start,
			&replyError{msg: fmt.Sprintf("HTTP %d %s", status, resBody)})
	}
	d.js.Present, d.js.Removed, d.js.Added = d.js.Present[:0], d.js.Removed[:0], 0
	if err := json.Unmarshal(resBody, &d.js); err != nil {
		return fmt.Errorf("decoding %s: %w", resBody, err)
	}
	switch o.kind {
	case opTest:
		d.got = append(d.got[:0], d.js.Present...)
	case opRemove:
		d.got = append(d.got[:0], d.js.Removed...)
	case opAdd:
		if d.js.Added != len(o.items) {
			return fmt.Errorf("add-batch of %d items answered added=%d", len(o.items), d.js.Added)
		}
		d.got = d.got[:0]
		for range o.items {
			d.got = append(d.got, true)
		}
	}
	return d.account(t, o.kind, o.items, o.live, start, nil)
}

// digestPoller fetches a filter's digest as a sealed mesh peer, presenting
// the ETag it holds so the server can answer with a delta frame, and keeps
// the resulting digest.
type digestPoller struct {
	c    *http.Client
	url  string
	have string
	held *cachedigest.PeerDigest
	body bytes.Buffer
}

func newDigestPoller(c *http.Client, host, filter string) *digestPoller {
	return &digestPoller{c: c, url: "http://" + host + "/v2/filters/" + filter + "/digest"}
}

// request is the poll request.
func (p *digestPoller) request() (*http.Request, error) {
	req, err := http.NewRequest(http.MethodGet, p.url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(service.HeaderPeerToken, clientPeer)
	req.Header.Set(service.HeaderDigestDelta, "1")
	if p.have != "" {
		req.Header.Set(service.HeaderDigestHave, p.have)
	}
	return req, nil
}

// poll fetches and applies one digest frame and checks it against the
// model: the digest's count is the client's net inserts (every write has
// been answered) and recent live items test present in it.
func (p *digestPoller) poll(st *stream, pt *pollTally, t *tally) error {
	req, err := p.request()
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := fetch(p.c, req, &p.body)
	if err != nil {
		return err
	}
	pt.lat = append(pt.lat, nsBetween(start, time.Now()))
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("digest poll: HTTP %d %s", res.StatusCode, p.body.Bytes())
	}
	pt.n++
	delta, err := p.take(p.body.Bytes(), res.Header)
	if err != nil {
		return err
	}
	if delta {
		pt.deltas++
	}
	if got := p.held.Count(); got != uint64(st.net) {
		t.violate("digest count %d, client's net inserts %d", got, st.net)
	}
	for i := len(st.own) - 1; i >= 0 && i >= len(st.own)-8; i-- {
		if !p.held.Test(st.own[i]) {
			t.violate("live item %q absent from the digest", st.own[i])
		}
	}
	return nil
}

// take unseals one poll's frame and applies it to the held digest,
// reporting whether it was a delta.
func (p *digestPoller) take(body []byte, h http.Header) (bool, error) {
	frame, err := cachedigest.Unseal(body, []byte(nodeSecret))
	if err != nil {
		return false, fmt.Errorf("digest poll: %w", err)
	}
	delta := h.Get(service.HeaderDigestFrame) == "delta"
	if delta {
		if p.held == nil {
			return false, errors.New("digest poll: delta frame before any full digest")
		}
		p.held, err = p.held.ApplyDelta(frame)
	} else {
		p.held, err = cachedigest.OpenEnvelope(frame)
	}
	if err != nil {
		return false, fmt.Errorf("digest poll: %w", err)
	}
	p.have = h.Get("ETag")
	return delta, nil
}

// runPhase drives every connection concurrently and merges their tallies:
// for budget commands each when budget > 0, else until deadline.
func runPhase(ctx context.Context, ds []*worker, budget int, deadline time.Time) (*tally, error) {
	tallies := make([]*tally, len(ds))
	errs := make([]error, len(ds))
	var wg sync.WaitGroup
	for i, d := range ds {
		tallies[i] = &tally{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("connection %d panicked: %v", i, r)
				}
			}()
			errs[i] = d.run(ctx, budget, deadline, tallies[i])
		}()
	}
	wg.Wait()
	total := &tally{}
	for _, t := range tallies {
		total.merge(t, true)
	}
	if err := errors.Join(errs...); err != nil {
		return total, err
	}
	return total, ctx.Err()
}

// quantile is the nearest-rank q-quantile of sorted ns samples, in µs.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}
