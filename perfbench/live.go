package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"evilbloom/internal/resp"
)

// instances is how many times a run sets up a fresh server and
// measures it; every end-to-end figure is a median over them.
const instances = 5

// setUpsPerInstance is how many servers a run sets up per measured one.
// The others are timed and killed: a set-up lasts a fraction of a second,
// so setup_s, the median over all of them, needs more samples than the
// window's figures to be as steady.
const setUpsPerInstance = 3

// live is one set-up server with its client connections, ready to measure.
type live struct {
	w       *workload
	srv     *server
	args    []string
	dataDir string
	streams []*stream
	workers []*worker
	closers []func()
	// laps are the set-up phases' durations, for the log.
	laps []string
	mark time.Time
}

// lap ends a set-up phase.
func (l *live) lap(name string) {
	now := time.Now()
	l.laps = append(l.laps, fmt.Sprintf("%s %.3fs", name, now.Sub(l.mark).Seconds()))
	l.mark = now
}

// close closes the client connections.
func (l *live) close() {
	for _, c := range l.closers {
		c()
	}
	l.closers = nil
}

// serverArgs are the serve flags of a workload's server.
func serverArgs(w *workload, dataDir string) []string {
	var args []string
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "interval")
	}
	if w.rateMutations > 0 {
		args = append(args, "-rate-mutations", strconv.FormatFloat(w.rateMutations, 'g', -1, 64))
	}
	if w.auth {
		args = append(args, "-auth-token", clientName+":"+clientSecret)
	}
	if w.digestEvery > 0 {
		args = append(args, "-peer-token", nodePeer, "-peer-token", clientPeer)
	}
	return args
}

// reserveArgs is the BF.RESERVE command creating the workload's filter.
func reserveArgs(w *workload) []string {
	c := w.cfg
	args := []string{"BF.RESERVE", w.filter, "0", "0",
		"VARIANT", c.Variant.String(), "MODE", c.Mode.String(),
		"SHARDS", strconv.Itoa(c.Shards), "SHARDBITS", strconv.FormatUint(c.ShardBits, 10),
		"HASHES", strconv.Itoa(c.HashCount)}
	if c.Seed != 0 {
		args = append(args, "SEED", strconv.FormatUint(c.Seed, 10))
	}
	if c.CounterWidth != 0 {
		args = append(args, "COUNTERWIDTH", strconv.Itoa(c.CounterWidth))
	}
	return args
}

// filterSpecJSON is the PUT /v2/filters body creating the workload's filter.
func filterSpecJSON(w *workload) []byte {
	c := w.cfg
	return []byte(fmt.Sprintf(`{"variant":%q,"mode":%q,"shards":%d,"shard_bits":%d,"hash_count":%d,"seed":%d}`,
		c.Variant, c.Mode, c.Shards, c.ShardBits, c.HashCount, c.Seed))
}

// control opens a RESP control connection, logged in when the workload
// authenticates, so set-up writes charge the same principal.
func control(w *workload, addr string) (*resp.Client, error) {
	c, err := resp.DialTimeout(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if w.auth {
		if _, err := do(c, "AUTH", clientName, clientSecret); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// do runs one control command, turning an error reply into an error.
func do(c *resp.Client, args ...string) (*resp.Reply, error) {
	r, err := c.Do(args...)
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", args[0], err)
	}
	return r, nil
}

// sendItems runs cmd over items in pipelined chunks and returns the answers.
func sendItems(c *resp.Client, cmd, filter string, items [][]byte, chunk int) ([]bool, error) {
	out := make([]bool, 0, len(items))
	const depth = 16
	for start := 0; start < len(items); {
		var sent []int
		for len(sent) < depth && start < len(items) {
			end := min(start+chunk, len(items))
			c.SendItems(cmd, filter, items[start:end])
			sent = append(sent, end-start)
			start = end
		}
		if err := c.Flush(); err != nil {
			return nil, err
		}
		for _, n := range sent {
			r, err := c.Receive()
			if err == nil {
				out, err = itemAnswers(r, n, out)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cmd, err)
			}
		}
	}
	return out, nil
}

// info returns the BF.INFO fields of the filter.
func info(c *resp.Client, filter string) (map[string]resp.Reply, error) {
	r, err := do(c, "BF.INFO", filter)
	if err != nil {
		return nil, err
	}
	m := map[string]resp.Reply{}
	for i := 0; i+1 < len(r.Elems); i += 2 {
		m[r.Elems[i].Str] = r.Elems[i+1]
	}
	return m, nil
}

func infoFloat(m map[string]resp.Reply, key string) float64 {
	v := m[key]
	if v.Type == ':' {
		return float64(v.Int)
	}
	f, _ := strconv.ParseFloat(v.Str, 64)
	return f
}

// setUp starts a server, creates and preloads the filter, connects the
// clients and warms up. Its duration is one setup_s sample.
func (b *bench) setUp(ctx context.Context, u *universe) (*live, time.Duration, error) {
	w := b.w
	start := time.Now()
	l := &live{w: w, mark: start}
	if w.durable {
		var err error
		if l.dataDir, err = b.env.dataDir(); err != nil {
			return nil, 0, err
		}
	}
	l.args = serverArgs(w, l.dataDir)
	srv, err := b.env.startServer(ctx, l.args)
	if err != nil {
		return nil, 0, err
	}
	l.srv = srv
	l.lap("spawn")
	if err := l.prepare(ctx, u, b.seed); err != nil {
		l.close()
		return l, 0, err
	}
	d := time.Since(start)
	fmt.Fprintf(os.Stderr, "perfbench: set-up %.3fs: %s\n", d.Seconds(), strings.Join(l.laps, ", "))
	return l, d, nil
}

func (l *live) prepare(ctx context.Context, u *universe, seed int64) error {
	w := l.w
	ctl, err := control(w, l.srv.respAddr)
	if err != nil {
		return err
	}
	defer ctl.Close()
	if w.plane == "http" {
		c := httpClient()
		defer c.CloseIdleConnections()
		req, err := http.NewRequest(http.MethodPut, "http://"+l.srv.httpAddr+"/v2/filters/"+w.filter,
			bytes.NewReader(filterSpecJSON(w)))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		var body bytes.Buffer
		res, err := fetch(c, req, &body)
		if err != nil {
			return err
		}
		if res.StatusCode != http.StatusCreated {
			return fmt.Errorf("creating filter: HTTP %d %s", res.StatusCode, body.Bytes())
		}
	} else if _, err := do(ctl, reserveArgs(w)...); err != nil {
		return err
	}
	l.lap("create")
	if _, err := sendItems(ctl, "BF.MADD", w.filter, u.preload, 512); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	l.lap("preload")

	for i := 0; i < w.conns; i++ {
		st := newStream(w, u, seed, i)
		l.streams = append(l.streams, st)
		d := &worker{w: w, st: st, host: l.srv.httpAddr}
		l.workers = append(l.workers, d)
		if w.plane == "http" {
			if d.hc, err = dialItems(l.srv.httpAddr); err != nil {
				return err
			}
			l.closers = append(l.closers, func() { d.hc.Close() })
			continue
		}
		if d.rc, err = control(w, l.srv.respAddr); err != nil {
			return err
		}
		l.closers = append(l.closers, func() { d.rc.Close() })
	}
	if w.digestEvery > 0 {
		c := httpClient()
		l.closers = append(l.closers, c.CloseIdleConnections)
		d := l.workers[0]
		d.digest = newDigestPoller(c, l.srv.httpAddr, w.filter)
		t := &tally{}
		if err := d.digest.poll(d.st, &t.polls, t); err != nil {
			return err
		}
		if len(t.violation) > 0 {
			return errors.New(t.violation[0])
		}
	}
	l.lap("connect")
	t, err := runPhase(ctx, l.workers, w.warmup, time.Time{})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	l.lap("warm-up")
	if len(t.violation) > 0 {
		return fmt.Errorf("warm-up: %s", t.violation[0])
	}
	return nil
}

// liveResult is what the measured windows and the checks after them
// produced, one entry per server instance where a figure is per instance.
type liveResult struct {
	t          *tally   // counts and violations over every instance
	wins       []window // each instance's measured window
	serverCPU  []time.Duration
	clientCPU  time.Duration
	hwm        []int64 // server VmHWM when the window opens
	hwmEnd     []int64 // and when it closes
	setup      []time.Duration
	restart    []time.Duration // durable-churn only
	diskPerItm []float64       // durable-churn only
	checks     []string        // violations found after the windows
}

// runLive measures one workload against separate server processes: it
// measures instances servers for an equal share of the window each, so an
// unlucky instance (memory placement, a noisy neighbour for a few seconds)
// moves one share, and each figure is the median over them.
func (b *bench) runLive(ctx context.Context) (*liveResult, error) {
	if err := b.env.build(ctx); err != nil {
		return nil, err
	}
	u := newUniverse(b.w, b.seed)
	res := &liveResult{t: &tally{}}
	for i := 0; i < instances*setUpsPerInstance; i++ {
		l, d, err := b.setUp(ctx, u)
		if err != nil {
			if l != nil {
				b.env.stopNow(l.srv)
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, d)
		if i%setUpsPerInstance != setUpsPerInstance-1 {
			l.close()
			b.env.stopNow(l.srv)
			if l.dataDir != "" {
				os.RemoveAll(l.dataDir)
			}
			continue
		}
		err = b.measure(ctx, l, res)
		l.close()
		b.env.stopNow(l.srv)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measure runs one instance's share of the window, then its checks.
func (b *bench) measure(ctx context.Context, l *live, res *liveResult) error {
	var disk0 int64
	if l.w.durable {
		var err error
		if disk0, err = dirSize(l.dataDir); err != nil {
			return err
		}
	}
	// Peak RSS through set-up: the filter, preload and warm-up. Read before
	// the window because the window's garbage reaches the collector's goal
	// at a throughput-dependent moment, which would make a peak taken after
	// it bimodal.
	hwm, err := procHWM(l.srv.pid)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(l.srv.pid)
	if err != nil {
		return err
	}
	self0 := selfCPU()
	share := b.seconds / instances
	fmt.Fprintf(os.Stderr, "perfbench: measuring for %v\n", share)
	t, err := runPhase(ctx, l.workers, 0, time.Now().Add(share))
	res.clientCPU += selfCPU() - self0
	if err != nil {
		return fmt.Errorf("measured window: %w", err)
	}
	cpu1, err := procCPU(l.srv.pid)
	if err != nil {
		return err
	}
	hwmEnd, err := procHWM(l.srv.pid)
	if err != nil {
		return err
	}
	res.t.merge(t, false)
	res.wins = append(res.wins, t.window)
	res.serverCPU = append(res.serverCPU, cpu1-cpu0)
	res.hwm = append(res.hwm, hwm)
	res.hwmEnd = append(res.hwmEnd, hwmEnd)
	if l.w.durable {
		return b.restart(ctx, l, res, t, disk0)
	}
	return b.checkAfter(l, res, t)
}

// restart drains the durable server with SIGTERM, restarts it on the same
// data directory and times until its first correct answer. The checks run
// before and after, on the model of live items and net inserts.
func (b *bench) restart(ctx context.Context, l *live, res *liveResult, t *tally, disk0 int64) error {
	st := l.streams[0]
	if err := checkDurable(l.w, l.srv, st, res, "before restart"); err != nil {
		return err
	}
	l.close()
	start := time.Now()
	if err := b.env.stop(l.srv, 60*time.Second); err != nil {
		return err
	}
	disk1, err := dirSize(l.dataDir)
	if err != nil {
		return err
	}
	res.diskPerItm = append(res.diskPerItm, float64(disk1-disk0)/float64(max(t.mutated, 1)))
	srv, err := b.env.startServer(ctx, l.args)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	l.srv = srv
	// The server replays its data dir before it prints the banner, so its
	// first answer is the restarted state; checkDurable then checks it.
	ctl, err := control(l.w, srv.respAddr)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	_, err = info(ctl, l.w.filter)
	ctl.Close()
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	res.restart = append(res.restart, time.Since(start))
	if err := checkDurable(l.w, srv, st, res, "after restart"); err != nil {
		return err
	}
	return b.env.stop(srv, 60*time.Second)
}

// checkDurable checks every live item for a false negative and BF.INFO's
// count against the client's net inserts.
func checkDurable(w *workload, srv *server, st *stream, res *liveResult, when string) error {
	ctl, err := control(w, srv.respAddr)
	if err != nil {
		return err
	}
	defer ctl.Close()
	items := st.liveItems()
	got, err := sendItems(ctl, "BF.MEXISTS", w.filter, items, 512)
	if err != nil {
		return err
	}
	for i, ok := range got {
		if !ok {
			res.checks = append(res.checks, fmt.Sprintf("%s: false negative on live item %q", when, items[i]))
			break
		}
	}
	m, err := info(ctl, w.filter)
	if err != nil {
		return err
	}
	if n := int64(infoFloat(m, "count")); n != st.net {
		res.checks = append(res.checks, fmt.Sprintf("%s: BF.INFO count %d, client's net inserts %d", when, n, st.net))
	}
	return nil
}

// fnSample is how many live items per connection the sampled
// false-negative check tests after the window.
const fnSample = 4096

// fprSigmas and fprFloor set the slack of the false-positive check: the
// measured count of false positives may exceed its expectation by this many
// standard deviations plus this many positives.
const (
	fprSigmas = 6
	fprFloor  = 3
)

// checkAfter runs the post-window checks of the in-memory workloads: a
// sampled false-negative check over live items and, on resp-lookup, the
// false-positive rate against (1-e^(-kn/m))^k at the reported fill.
func (b *bench) checkAfter(l *live, res *liveResult, t *tally) error {
	ctl, err := control(l.w, l.srv.respAddr)
	if err != nil {
		return err
	}
	defer ctl.Close()
	rng := rand.New(rand.NewSource(b.seed))
	for _, st := range l.streams {
		items := st.liveItems()
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		items = items[:min(fnSample, len(items))]
		got, err := sendItems(ctl, "BF.MEXISTS", l.w.filter, items, 512)
		if err != nil {
			return err
		}
		for i, ok := range got {
			if !ok {
				res.checks = append(res.checks, fmt.Sprintf("false negative on live item %q", items[i]))
				break
			}
		}
	}
	if l.w.name != "resp-lookup" {
		return nil
	}
	m, err := info(ctl, l.w.filter)
	if err != nil {
		return err
	}
	fill, k := infoFloat(m, "fill"), infoFloat(m, "k")
	p := math.Pow(fill, k)
	n := float64(t.probes)
	allowed := n*p + fprSigmas*math.Sqrt(n*p) + fprFloor
	if float64(t.falsePos) > allowed {
		res.checks = append(res.checks, fmt.Sprintf("false-positive rate %d/%d exceeds fill^k=%.3g (fill %.4g, k %v) plus slack",
			t.falsePos, t.probes, p, fill, k))
	}
	return nil
}
