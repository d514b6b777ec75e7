package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"evilbloom/internal/cachedigest"
	"evilbloom/internal/engine"
	"evilbloom/internal/hashes"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/resp"
	"evilbloom/internal/service"
)

// The traced run replays a workload's generated command streams in-process
// and times each layer's public entry points. The primary instance serves
// the exact wire bytes through the codec and the engine, as the server
// would. Layers below the engine are timed on twin instances with the same
// configuration that receive the same items, so every instance's state is
// mutated once:
//
//	primary  codec (resp.Reader / httpapi.Server) → engine → store (+journal)
//	engine   engine.Engine batch calls (HTTP plane: the codec's child)
//	memory   service.Limiter.Allow, service.Sharded batches, DigestExchange
//	durable  service.Sharded batches with the journal attached
//
// A layer's self time is its span minus the child spans it covers; the
// journal's time is the durable twin's store span minus the in-memory one.

type spanKind uint8

const (
	spReplay spanKind = iota
	spLoadgen
	spRESPDecode
	spHTTPServe
	spEngine
	spLimiter
	spStoreTest
	spStoreAdd
	spStoreRemove
	spDurableAdd
	spDurableRemove
	spRouteHash
	spIndexHash
	spDigestExchange
	spUnseal
	spApply
	numSpans
)

var spanNames = [numSpans]string{
	"replay", "loadgen", "resp.Reader.ReadCommand", "httpapi.Server.ServeHTTP",
	"engine.Engine", "service.Limiter.Allow", "service.Sharded.TestBatch",
	"service.Sharded.AddBatch", "service.Sharded.RemoveBatch",
	"durable.Sharded.AddBatch", "durable.Sharded.RemoveBatch",
	"hashes.SipHash24", "hashes.IndexFamily.Indexes",
	"engine.Engine.DigestExchange", "cachedigest.Unseal", "cachedigest.PeerDigest.Apply",
}

type span struct {
	start, end int64
	parent     int32
	req        uint32
	kind       spanKind
}

// maxSpans caps the spans kept for the trace file; totals cover them all.
const maxSpans = 200_000

type tracer struct {
	t0 time.Time
	// clock is the cost of one clock read, which every span's duration
	// includes once; rec subtracts it from the totals.
	clock int64
	spans []span
	total [numSpans]int64
	calls [numSpans]int64
}

func newTracer() tracer {
	t := tracer{t0: time.Now()}
	reads := make([]int64, 0, 1001)
	for i := 0; i < cap(reads); i++ {
		reads = append(reads, t.now())
	}
	gaps := make([]int64, 0, len(reads)-1)
	for i := 1; i < len(reads); i++ {
		gaps = append(gaps, reads[i]-reads[i-1])
	}
	slices.Sort(gaps)
	t.clock = gaps[len(gaps)/2]
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// span is the duration between two clock reads, less one read's cost.
func (t *tracer) span(start, end int64) int64 { return max(end-start-t.clock, 0) }

// rec records a finished span and returns its index (-1 once the file cap
// is reached).
func (t *tracer) rec(kind spanKind, parent int32, req uint32, start, end int64) int32 {
	t.total[kind] += t.span(start, end)
	t.calls[kind]++
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, req: req, kind: kind})
	return int32(len(t.spans) - 1)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.req, spanNames[s.kind], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// instance is one in-process filter service: registry, engine and filter.
type instance struct {
	reg   *service.Registry
	eng   *engine.Engine
	ref   engine.FilterRef
	store *service.Sharded
}

func newInstance(w *workload, cfg service.Config, dataDir string) (*instance, error) {
	reg := service.NewRegistry()
	if err := reg.ConfigureRateLimit(service.RateLimitConfig{
		MutationsPerSec: w.rateMutations, MaxClients: service.DefaultRateClientsMax}); err != nil {
		return nil, err
	}
	if dataDir != "" {
		if _, err := reg.OpenDataDir(dataDir, service.SyncInterval); err != nil {
			return nil, err
		}
	}
	eng := engine.New(reg)
	if w.auth {
		if err := eng.ConfigureAuth([]string{clientName + ":" + clientSecret}); err != nil {
			return nil, err
		}
	}
	if w.digestEvery > 0 {
		if err := eng.ConfigurePeerAuth([]string{nodePeer, clientPeer}); err != nil {
			return nil, err
		}
	}
	if _, err := eng.CreateFilter(w.filter, cfg); err != nil {
		return nil, err
	}
	ref, err := eng.Lookup(w.filter)
	if err != nil {
		return nil, err
	}
	f, err := reg.Get(w.filter)
	if err != nil {
		return nil, err
	}
	return &instance{reg: reg, eng: eng, ref: ref, store: f.Store()}, nil
}

// traceConfig fixes the filter's secrets from the seed so twins agree.
func traceConfig(w *workload, seed int64) service.Config {
	cfg := w.cfg
	key := sha256.Sum256(binary.LittleEndian.AppendUint64([]byte("perfbench-key"), uint64(seed)))
	cfg.RouteKey = key[:16]
	if cfg.Mode == service.ModeHardened {
		cfg.Key = key[16:]
	}
	return cfg
}

// hashFamily rebuilds the store's route key and per-shard index families,
// as service.NewSharded derives them.
func hashFamily(cfg service.Config) (hashes.SipKey, []hashes.IndexFamily, error) {
	var rk [16]byte
	copy(rk[:], cfg.RouteKey)
	fams := make([]hashes.IndexFamily, cfg.Shards)
	for i := range fams {
		var err error
		if cfg.Mode == service.ModeHardened {
			h := sha256.New()
			h.Write(cfg.Key)
			h.Write([]byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)})
			var d *hashes.Digester
			if d, err = hashes.NewDigester(hashes.SipHash24Alg, h.Sum(nil)[:16]); err == nil {
				fams[i], err = hashes.NewRecycling(d, cfg.HashCount, cfg.ShardBits)
			}
		} else {
			fams[i], err = hashes.NewDoubleHashing(cfg.HashCount, cfg.ShardBits, cfg.Seed)
		}
		if err != nil {
			return hashes.SipKey{}, nil, err
		}
	}
	return hashes.SipKeyFromBytes(rk), fams, nil
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(s int) {
	if r.status == 0 {
		r.status = s
	}
}
func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}
func (r *recorder) reset() {
	clear(r.h)
	r.status = 0
	r.body.Reset()
}

// layerSums accumulates the replay's per-layer totals.
type layerSums struct {
	items, decodeItems, httpReqs   int64
	httpItems, httpBytes           int64
	httpItemServe, httpItemEngine  int64
	httpPollServe, httpPollExch    int64
	engineItems, engineNs, refused int64
	engineChildNs                  int64
	charged                        int64
	testItems, addItems, remItems  int64
	mutItems, memMutNs, durMutNs   int64
	hashItems                      int64
	codecAllocs, codecSamples      int64
	storeAllocs, storeSamples      int64
	polls, deltas, pollBytes       int64
}

// replay is one traced run's state.
type replay struct {
	w        *workload
	tr       tracer
	a        *instance // primary
	api      *httpapi.Server
	eng      *instance // engine twin (HTTP plane)
	mem      *instance // in-memory store, limiter and digest twin
	dur      *instance // durable store twin (durable workloads)
	durDir   string
	streams  []*stream
	p        engine.Principal
	route    hashes.SipKey
	fams     []hashes.IndexFamily
	feed     bytes.Reader
	tap      wireTap
	enc      *resp.Client
	rd       *resp.Reader
	cmd      resp.Command
	run      engine.Run
	rw       recorder
	items    itemsBody
	buf      []byte
	body     []byte
	idx      []uint64
	shards   []int
	got      []bool
	twin     []bool
	sums     layerSums
	t        tally
	poller   *digestPoller
	twinHave string
	writes   int
	req      uint32
	ms       runtime.MemStats
}

func newReplay(w *workload) *replay {
	r := &replay{w: w, tr: newTracer(), rw: recorder{h: http.Header{}}}
	r.rd = resp.NewReader(&r.feed)
	r.enc = resp.NewClient(&r.tap)
	return r
}

// setUp builds fresh instances, preloads them and restarts the streams, as
// the untraced run sets up each server instance.
func (r *replay) setUp(ctx context.Context, b *bench, u *universe) error {
	w := b.w
	cfg := traceConfig(w, b.seed)
	var err error
	primaryDir := ""
	if w.durable {
		if primaryDir, err = b.env.dataDir(); err != nil {
			return err
		}
		if r.durDir, err = b.env.dataDir(); err != nil {
			return err
		}
		if r.dur, err = newInstance(w, cfg, r.durDir); err != nil {
			return err
		}
	}
	if r.a, err = newInstance(w, cfg, primaryDir); err != nil {
		return err
	}
	r.api = httpapi.NewEngineServer(r.a.eng)
	if r.mem, err = newInstance(w, cfg, ""); err != nil {
		return err
	}
	if w.plane == "http" {
		if r.eng, err = newInstance(w, cfg, ""); err != nil {
			return err
		}
	}
	if r.route, r.fams, err = hashFamily(cfg); err != nil {
		return err
	}
	r.p = engine.AnonymousFromRemoteAddr(replayRemote)
	if w.auth {
		if r.p, err = r.a.eng.Login(clientName, clientSecret); err != nil {
			return err
		}
	}
	for start := 0; start < len(u.preload); start += 512 {
		chunk := u.preload[start:min(start+512, len(u.preload))]
		if _, err := r.a.eng.AddBatch(r.p, r.a.ref, chunk); err != nil {
			return err
		}
		for _, in := range []*instance{r.eng, r.mem, r.dur} {
			if in != nil {
				in.store.AddBatch(chunk)
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	r.streams = r.streams[:0]
	for i := 0; i < w.conns; i++ {
		r.streams = append(r.streams, newStream(w, u, b.seed, i))
	}
	r.writes, r.twinHave = 0, ""
	if w.digestEvery > 0 {
		// The first, full fetch is set-up: it is not traced.
		r.poller = newDigestPoller(nil, replayHost, w.filter)
		return r.digestPoll(false)
	}
	return nil
}

// tearDown closes the instances and drops them, returning the memory twin's
// fill.
func (r *replay) tearDown() (float64, error) {
	fill := r.mem.store.Stats().Fill
	var errs []error
	for _, in := range []*instance{r.a, r.mem, r.eng, r.dur} {
		if in != nil {
			errs = append(errs, in.reg.Close())
		}
	}
	r.a, r.mem, r.eng, r.dur, r.api = nil, nil, nil, nil, nil
	// Hand the filters back before the next set-up allocates its own.
	runtime.GC()
	debug.FreeOSMemory()
	return fill, errors.Join(errs...)
}

const (
	replayRemote = "127.0.0.1:40000"
	replayHost   = "127.0.0.1:8379"
)

// allocs returns the process's cumulative heap allocation count.
func (r *replay) allocs() int64 {
	runtime.ReadMemStats(&r.ms)
	return int64(r.ms.Mallocs)
}

// step replays one command. With traced false only the primary path runs:
// the baseline the tracing overhead is measured against.
func (r *replay) step(st *stream, traced bool) error {
	r.req++
	tr := &r.tr
	root := tr.now()
	o := st.next()
	if r.w.plane == "resp" {
		r.tap.buf = r.tap.buf[:0]
		r.enc.SendItems(respCommandName(o.kind), r.w.filter, o.items)
		if err := r.enc.Flush(); err != nil {
			return err
		}
	} else {
		var err error
		if r.body, err = r.items.encode(o.items); err != nil {
			return err
		}
		r.buf = appendItemRequest(r.buf[:0], replayHost, r.w.filter, o.kind, r.body)
	}
	gen := tr.now()
	n := int64(len(o.items))
	r.t.items += n
	if !traced {
		if r.w.plane == "resp" {
			return r.respPrimary(o, -1, false)
		}
		return r.httpPrimary(o, -1, false)
	}
	rootID := tr.rec(spReplay, -1, r.req, root, root) // end patched below
	tr.rec(spLoadgen, rootID, r.req, root, gen)
	var err error
	if r.w.plane == "resp" {
		err = r.respPrimary(o, rootID, true)
	} else {
		err = r.httpPrimary(o, rootID, true)
	}
	if err != nil {
		return err
	}
	r.twins(o, rootID)
	if o.kind.write() && r.poller != nil {
		r.writes++
		if r.writes%r.w.digestEvery == 0 {
			if err := r.digestPoll(true); err != nil {
				return err
			}
		}
	}
	if rootID >= 0 {
		tr.spans[rootID].end = tr.now()
	}
	r.sums.items += n
	return nil
}

// respPrimary decodes the exact command bytes and runs them through the
// primary's engine, as the RESP codec does.
func (r *replay) respPrimary(o *op, root int32, traced bool) error {
	tr := &r.tr
	sample := traced && r.req%16 == 0
	var a0 int64
	if sample {
		a0 = r.allocs()
	}
	r.feed.Reset(r.tap.buf)
	s0 := tr.now()
	err := r.rd.ReadCommand(&r.cmd)
	s1 := tr.now()
	if sample {
		r.sums.codecAllocs += r.allocs() - a0
		r.sums.codecSamples++
	}
	if err != nil {
		return fmt.Errorf("decoding %s: %w", respCommandName(o.kind), err)
	}
	items := r.cmd.Args[2:]
	kind := engine.RunTest
	switch o.kind {
	case opAdd:
		kind = engine.RunAdd
	case opRemove:
		kind = engine.RunRemove
	}
	e0 := tr.now()
	if err := engine.ValidateItems(items); err != nil {
		return err
	}
	ref, err := r.a.eng.Lookup(r.w.filter)
	if err != nil {
		return err
	}
	r.run.Reset(kind)
	r.run.Items = append(r.run.Items, items...)
	r.run.AddChunk(len(items))
	r.a.eng.ExecuteRun(r.p, ref, &r.run)
	e1 := tr.now()
	if traced {
		dec := tr.rec(spRESPDecode, root, r.req, s0, s1)
		tr.rec(spEngine, dec, r.req, e0, e1)
		r.sums.decodeItems += int64(len(items))
		r.sums.engineNs += tr.span(e0, e1)
		r.sums.engineItems += int64(len(items))
	}
	if r.run.Chunks[0].Busy || r.run.Err != nil {
		r.sums.refused += int64(len(items))
		r.t.failed += int64(len(items))
		r.t.violate("%s refused: busy=%v err=%v", respCommandName(o.kind), r.run.Chunks[0].Busy, r.run.Err)
		return nil
	}
	r.got = append(r.got[:0], r.run.Bools...)
	checkReply(&r.t, o.kind, o.items, o.live, r.got)
	return nil
}

// httpPrimary serves the exact request through the primary's HTTP codec.
func (r *replay) httpPrimary(o *op, root int32, traced bool) error {
	tr := &r.tr
	req, err := serverRequest(r.buf, replayRemote)
	if err != nil {
		return err
	}
	r.rw.reset()
	sample := traced && r.req%16 == 0
	var a0 int64
	if sample {
		a0 = r.allocs()
	}
	s0 := tr.now()
	r.api.ServeHTTP(&r.rw, req)
	s1 := tr.now()
	if sample {
		r.sums.codecAllocs += r.allocs() - a0
		r.sums.codecSamples++
	}
	if r.rw.status != http.StatusOK {
		r.sums.refused += int64(len(o.items))
		r.t.failed += int64(len(o.items))
		r.t.violate("HTTP %d %s", r.rw.status, r.rw.body.Bytes())
		return nil
	}
	var js struct {
		Present []bool `json:"present"`
		Added   int    `json:"added"`
	}
	if err := json.Unmarshal(r.rw.body.Bytes(), &js); err != nil {
		return err
	}
	r.got = append(r.got[:0], js.Present...)
	checkReply(&r.t, o.kind, o.items, o.live, r.got)
	if !traced {
		return nil
	}
	serve := tr.rec(spHTTPServe, root, r.req, s0, s1)
	// The engine twin runs the same batch call the codec made.
	e0 := tr.now()
	switch o.kind {
	case opTest:
		r.twin, err = r.eng.eng.TestBatch(r.eng.ref, r.twin[:0], o.items)
	case opAdd:
		_, err = r.eng.eng.AddBatch(r.p, r.eng.ref, o.items)
	case opRemove:
		_, err = r.eng.eng.RemoveBatch(r.p, r.eng.ref, o.items)
	}
	e1 := tr.now()
	if err != nil {
		return fmt.Errorf("engine twin: %w", err)
	}
	tr.rec(spEngine, serve, r.req, e0, e1)
	n := int64(len(o.items))
	r.sums.httpReqs++
	r.sums.httpItems += n
	r.sums.httpBytes += int64(len(r.body) + r.rw.body.Len())
	r.sums.httpItemServe += tr.span(s0, s1)
	r.sums.httpItemEngine += tr.span(e0, e1)
	r.sums.engineNs += tr.span(e0, e1)
	r.sums.engineItems += n
	return nil
}

// twins replays the command's store, limiter and hash work on the twins,
// checking that they answer as the primary did.
func (r *replay) twins(o *op, root int32) {
	tr := &r.tr
	n := len(o.items)
	var child int64
	if o.kind.write() {
		l0 := tr.now()
		ok, _ := r.mem.reg.Limiter().Allow(r.w.filter, r.p.ID, n)
		l1 := tr.now()
		tr.rec(spLimiter, root, r.req, l0, l1)
		child += tr.span(l0, l1)
		if ok {
			r.sums.charged += int64(n)
		}
	}
	sample := r.req%16 == 8
	var a0 int64
	if sample {
		a0 = r.allocs()
	}
	agree := true
	var memMut int64
	switch o.kind {
	case opTest:
		s0 := tr.now()
		r.twin = r.mem.store.TestBatch(r.twin[:0], o.items)
		s1 := tr.now()
		tr.rec(spStoreTest, root, r.req, s0, s1)
		child += tr.span(s0, s1)
		r.sums.testItems += int64(n)
		agree = slices.Equal(r.twin, r.got)
	case opAdd:
		s0 := tr.now()
		if r.w.plane == "resp" {
			// ExecuteRun answers novelty with a TestBatch before AddBatch.
			r.twin = r.mem.store.TestBatch(r.twin[:0], o.items)
		}
		s1 := tr.now()
		r.mem.store.AddBatch(o.items)
		s2 := tr.now()
		if r.w.plane == "resp" {
			tr.rec(spStoreTest, root, r.req, s0, s1)
			r.sums.testItems += int64(n)
			for i := range r.twin {
				r.twin[i] = !r.twin[i]
			}
			agree = slices.Equal(r.twin, r.got)
		}
		tr.rec(spStoreAdd, root, r.req, s1, s2)
		child += tr.span(s0, s1)
		memMut = tr.span(s1, s2)
		r.sums.addItems += int64(n)
	case opRemove:
		s0 := tr.now()
		removed, err := r.mem.store.RemoveBatch(o.items)
		s1 := tr.now()
		tr.rec(spStoreRemove, root, r.req, s0, s1)
		memMut = tr.span(s0, s1)
		r.sums.remItems += int64(n)
		agree = err == nil && !slices.Contains(removed, false)
	}
	if sample {
		r.sums.storeAllocs += r.allocs() - a0
		r.sums.storeSamples++
	}
	if !agree {
		r.t.violate("in-memory twin disagrees with the primary on a %s", respCommandName(o.kind))
	}
	if o.kind.write() {
		r.sums.mutItems += int64(n)
		r.sums.memMutNs += memMut
		mut := memMut
		if r.dur != nil {
			d0 := tr.now()
			kind := spDurableAdd
			if o.kind == opAdd {
				r.dur.store.AddBatch(o.items)
			} else {
				kind = spDurableRemove
				removed, err := r.dur.store.RemoveBatch(o.items)
				if err != nil || slices.Contains(removed, false) {
					r.t.violate("durable twin refused a removal of live items")
				}
			}
			d1 := tr.now()
			tr.rec(kind, root, r.req, d0, d1)
			mut = tr.span(d0, d1)
			r.sums.durMutNs += mut
		}
		child += mut
	}
	r.sums.engineChildNs += child

	// The store's two hashes, timed alone on the same items.
	h0 := tr.now()
	r.shards = r.shards[:0]
	for _, it := range o.items {
		r.shards = append(r.shards, int(hashes.SipHash24(r.route, it)&uint64(len(r.fams)-1)))
	}
	h1 := tr.now()
	for i, it := range o.items {
		r.idx = r.fams[r.shards[i]].Indexes(r.idx[:0], it)
	}
	h2 := tr.now()
	tr.rec(spRouteHash, root, r.req, h0, h1)
	tr.rec(spIndexHash, root, r.req, h1, h2)
	r.sums.hashItems += int64(n)
}

// digestPoll serves the exact poll request through the primary's HTTP
// codec, takes the sealed frame in as the client does, and times the
// export on the in-memory twin. Untraced polls record no spans or sums.
func (r *replay) digestPoll(traced bool) error {
	tr := &r.tr
	poll, err := r.poller.request()
	if err != nil {
		return err
	}
	var wire bytes.Buffer
	if err := poll.Write(&wire); err != nil {
		return err
	}
	req, err := serverRequest(wire.Bytes(), replayRemote)
	if err != nil {
		return err
	}
	r.rw.reset()
	s0 := tr.now()
	r.api.ServeHTTP(&r.rw, req)
	s1 := tr.now()
	if r.rw.status != http.StatusOK {
		return fmt.Errorf("digest poll: HTTP %d %s", r.rw.status, r.rw.body.Bytes())
	}
	body := r.rw.body.Bytes()
	u0 := tr.now()
	frame, err := cachedigest.Unseal(body, []byte(nodeSecret))
	u1 := tr.now()
	if err != nil {
		return fmt.Errorf("digest poll: %w", err)
	}
	delta := r.rw.h.Get(service.HeaderDigestFrame) == "delta"
	a0 := tr.now()
	if delta {
		r.poller.held, err = r.poller.held.ApplyDelta(frame)
	} else {
		r.poller.held, err = cachedigest.OpenEnvelope(frame)
	}
	a1 := tr.now()
	if err != nil {
		return fmt.Errorf("digest poll: %w", err)
	}
	r.poller.have = r.rw.h.Get("ETag")
	st := r.streams[0]
	if got := r.poller.held.Count(); got != uint64(st.net) {
		r.t.violate("digest count %d, client's net inserts %d", got, st.net)
	}
	x0 := tr.now()
	res, err := r.mem.eng.DigestExchange(r.mem.ref, r.twinHave, true, clientPeer)
	x1 := tr.now()
	if err != nil {
		return fmt.Errorf("twin digest exchange: %w", err)
	}
	r.twinHave = res.ETag
	if !traced {
		return nil
	}
	serve := tr.rec(spHTTPServe, -1, r.req, s0, s1)
	tr.rec(spDigestExchange, serve, r.req, x0, x1)
	tr.rec(spUnseal, -1, r.req, u0, u1)
	tr.rec(spApply, -1, r.req, a0, a1)
	r.sums.httpReqs++
	r.sums.httpPollServe += tr.span(s0, s1)
	r.sums.httpPollExch += tr.span(x0, x1)
	r.sums.polls++
	r.sums.pollBytes += int64(len(body))
	if delta {
		r.sums.deltas++
	}
	return nil
}

// traceResult is the traced run's outcome.
type traceResult struct {
	metrics map[string]metric
	t       *tally
}

// runTrace replays the workload on fresh instances, instances times, as
// the untraced run measures fresh servers: each replays with spans on for
// its share of the run's seconds, then with spans off for a quarter of
// that. The per-layer metrics pool every share.
func (b *bench) runTrace(ctx context.Context) (*traceResult, error) {
	r := newReplay(b.w)
	u := newUniverse(b.w, b.seed)
	var onItems, offItems, journalBytes int64
	var onTime, offTime time.Duration
	var fills []float64
	for i := 0; i < instances; i++ {
		if err := r.setUp(ctx, b, u); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		var d0 int64
		if r.dur != nil {
			var err error
			if d0, err = dirSize(r.durDir); err != nil {
				return nil, err
			}
		}
		share := b.seconds / instances
		items, took, err := r.phase(ctx, share, true)
		if err != nil {
			return nil, err
		}
		onItems, onTime = onItems+items, onTime+took
		r.finalChecks()
		if r.dur != nil {
			// Closing flushes the durable twin's journal.
			if err := r.dur.reg.Close(); err != nil {
				return nil, err
			}
			d1, err := dirSize(r.durDir)
			if err != nil {
				return nil, err
			}
			journalBytes += d1 - d0
			r.dur = nil
		}
		items, took, err = r.phase(ctx, share/4, false)
		if err != nil {
			return nil, err
		}
		offItems, offTime = offItems+items, offTime+took
		fill, err := r.tearDown()
		if err != nil {
			return nil, err
		}
		fills = append(fills, fill)
	}
	if err := r.tr.write(filepath.Join(b.buildDir, "trace", fmt.Sprintf("%s-seed%d.tsv", b.w.name, b.seed))); err != nil {
		return nil, err
	}
	m := r.layerMetrics(medianOf(fills), journalBytes)
	m["trace.items_per_s_spans_on"] = metric{float64(onItems) / onTime.Seconds(), "1/s"}
	m["trace.items_per_s_spans_off"] = metric{float64(offItems) / offTime.Seconds(), "1/s"}
	return &traceResult{metrics: m, t: &r.t}, nil
}

// phase replays round-robin over the connections' streams for d and
// returns the items replayed and the time taken.
func (r *replay) phase(ctx context.Context, d time.Duration, traced bool) (int64, time.Duration, error) {
	items0 := r.t.items
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		if ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		if err := r.step(r.streams[i%len(r.streams)], traced); err != nil {
			return 0, 0, err
		}
	}
	return r.t.items - items0, time.Since(start), nil
}

// finalChecks compares every instance's net insert count with the model
// on workloads that remove, and checks every live item once.
func (r *replay) finalChecks() {
	if !r.w.removes() {
		return
	}
	st := r.streams[0]
	for name, in := range map[string]*instance{"primary": r.a, "memory twin": r.mem, "durable twin": r.dur} {
		if in == nil {
			continue
		}
		if got := int64(in.store.Count()); got != st.net {
			r.t.violate("%s count %d, client's net inserts %d", name, got, st.net)
		}
	}
	items := st.liveItems()
	got := r.a.store.TestBatch(nil, items)
	if i := slices.Index(got, false); i >= 0 {
		r.t.violate("false negative on live item %q", items[i])
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics derives the per-layer metrics from the replay's sums.
func (r *replay) layerMetrics(fill float64, journalBytes int64) map[string]metric {
	s, tot := &r.sums, &r.tr.total
	m := map[string]metric{
		"resp.decode_ns_per_item":              {ratio(tot[spRESPDecode], s.decodeItems), "ns"},
		"resp.decode_allocs_per_cmd":           {0, "count"},
		"httpapi.serve_ns_per_req":             {ratio(s.httpItemServe+s.httpPollServe, s.httpReqs), "ns"},
		"httpapi.self_ns_per_item":             {ratio(s.httpItemServe-s.httpItemEngine, s.httpItems), "ns"},
		"httpapi.allocs_per_req":               {0, "count"},
		"httpapi.body_bytes_per_item":          {ratio(s.httpBytes, s.httpItems), "B"},
		"engine.ns_per_item":                   {ratio(s.engineNs, s.engineItems), "ns"},
		"engine.self_ns_per_item":              {ratio(s.engineNs-s.engineChildNs, s.engineItems), "ns"},
		"engine.refused_ratio":                 {ratio(s.refused, s.engineItems), "ratio"},
		"service.limiter.allow_ns_per_call":    {ratio(tot[spLimiter], r.tr.calls[spLimiter]), "ns"},
		"service.limiter.charged_per_kitem":    {1000 * ratio(s.charged, s.items), "count"},
		"service.store.test_ns_per_item":       {ratio(tot[spStoreTest], s.testItems), "ns"},
		"service.store.add_ns_per_item":        {ratio(tot[spStoreAdd], s.addItems), "ns"},
		"service.store.remove_ns_per_item":     {ratio(tot[spStoreRemove], s.remItems), "ns"},
		"service.store.route_hash_ns_per_item": {ratio(tot[spRouteHash], s.hashItems), "ns"},
		"service.store.index_hash_ns_per_item": {ratio(tot[spIndexHash], s.hashItems), "ns"},
		"service.store.allocs_per_batch":       {ratio(s.storeAllocs, s.storeSamples), "count"},
		"service.store.fill":                   {fill, "ratio"},
		"service.journal.ns_per_item":          {0, "ns"},
		"service.journal.bytes_per_item":       {0, "B"},
		"cachedigest.exchange_ns_per_poll":     {ratio(s.httpPollExch, s.polls), "ns"},
		"cachedigest.bytes_per_poll":           {ratio(s.pollBytes, s.polls), "B"},
		"cachedigest.delta_ratio":              {ratio(s.deltas, s.polls), "ratio"},
		"cachedigest.apply_ns_per_poll":        {ratio(tot[spUnseal]+tot[spApply], s.polls), "ns"},
		"loadgen.cpu_us_per_kitem":             {ratio(tot[spLoadgen], s.items), "us"},
	}
	// The codec allocation samples belong to the workload's plane.
	codecAllocs := metric{ratio(s.codecAllocs, s.codecSamples), "count"}
	if r.w.plane == "resp" {
		m["resp.decode_allocs_per_cmd"] = codecAllocs
	} else {
		m["httpapi.allocs_per_req"] = codecAllocs
	}
	if r.w.durable {
		m["service.journal.ns_per_item"] = metric{ratio(s.durMutNs-s.memMutNs, s.mutItems), "ns"}
		m["service.journal.bytes_per_item"] = metric{ratio(journalBytes, s.mutItems), "B"}
	}
	return m
}
