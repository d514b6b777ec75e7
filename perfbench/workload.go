package main

import (
	"fmt"
	"math/rand"

	"evilbloom/internal/service"
	"evilbloom/internal/urlgen"
)

// workload is one named traffic mix: the filter it targets, the wire plane
// that carries its item commands, and the closed-loop client shape.
type workload struct {
	name string
	// plane carries the item commands: "resp" or "http".
	plane string
	// filter is the name the benchmark creates its filter under.
	filter string
	// cfg is the filter geometry. Keys are drawn per run; the traced replay
	// fixes them so its twin instances agree bit for bit.
	cfg service.Config
	// itemsPerCmd is the batch size of every item command.
	itemsPerCmd int
	// testPct and addPct split the mix; the remainder are removes.
	testPct, addPct int
	// conns is the number of item connections, window the commands each
	// keeps in flight (1 = strict request/response).
	conns, window int
	// preload items are added before the measured window opens.
	preload int
	// absent is the per-connection pool of never-added probe items.
	absent int
	// readd makes adds re-insert live items instead of new ones, keeping a
	// small filter's fill steady for the whole run.
	readd bool
	// liveCap, on a workload that removes, is the most items a stream holds
	// live: at the cap an add turns into a remove, so the filter's load
	// stays bounded however fast the server runs.
	liveCap int
	// warmup is the number of commands each connection runs after preload
	// and before the window.
	warmup int
	// durable serves from a data directory (-data-dir, -fsync interval).
	durable bool
	// auth makes the item connection log in as an authenticated principal.
	auth bool
	// rateMutations is the server's -rate-mutations budget (0: omitted, the
	// limiter then only accounts).
	rateMutations float64
	// digestEvery is the number of write commands between two digest polls
	// over HTTP as a sealed mesh peer (0: no polls).
	digestEvery int
}

// Credentials the benchmark configures on its own server. They guard
// nothing: the server listens on loopback for the length of one run.
const (
	clientName   = "perfbench"
	clientSecret = "perfbench-client-secret"
	nodePeer     = "node:perfbench-node-secret"
	nodeSecret   = "perfbench-node-secret"
	clientPeer   = clientName + ":perfbench-peer-secret"
)

var workloads = []*workload{
	{
		name:  "resp-lookup",
		plane: "resp", filter: "lookup",
		cfg: service.Config{Variant: service.VariantBloom, Mode: service.ModeHardened,
			Shards: 8, ShardBits: 1 << 28, HashCount: 7},
		itemsPerCmd: 64, testPct: 95, addPct: 5,
		conns: 2, window: 4,
		preload: 1 << 18, absent: 1 << 17,
		warmup: 1000,
	},
	{
		name:  "http-batch",
		plane: "http", filter: "batch",
		cfg: service.Config{Variant: service.VariantBlocked, Mode: service.ModeNaive,
			Shards: 8, ShardBits: 1 << 18, HashCount: 7, Seed: 3},
		itemsPerCmd: 8, testPct: 70, addPct: 30,
		conns: 2, window: 1,
		preload: 1 << 15, absent: 1 << 15, readd: true,
		warmup: 2000,
	},
	{
		name:  "durable-churn",
		plane: "resp", filter: "churn",
		cfg: service.Config{Variant: service.VariantCounting, Mode: service.ModeNaive,
			Shards: 8, ShardBits: 1 << 18, HashCount: 7, Seed: 3, CounterWidth: 4},
		itemsPerCmd: 16, testPct: 20, addPct: 45,
		conns: 1, window: 1,
		preload: 1 << 15, absent: 1 << 12, liveCap: 1 << 16,
		warmup:  2000,
		durable: true, auth: true, rateMutations: 1e9,
		digestEvery: 512,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// removes reports whether the mix deletes items; such workloads keep their
// preload in the (single) stream's own live set so it can be removed.
func (w *workload) removes() bool { return w.testPct+w.addPct < 100 }

type opKind uint8

const (
	opTest opKind = iota
	opAdd
	opRemove
)

func (k opKind) write() bool { return k != opTest }

// op is one generated item command. Its slices are reused by the next call
// to stream.next.
type op struct {
	kind  opKind
	items [][]byte
	// live marks, for opTest, the items the client holds live: a miss on
	// one of them is a false negative.
	live []bool
}

// universe is the seed-determined item set of one run: the preload and one
// never-added probe pool per connection, all distinct urlgen URLs.
type universe struct {
	preload [][]byte
	absent  [][][]byte
}

func newUniverse(w *workload, seed int64) *universe {
	g := urlgen.New(seed)
	u := &universe{preload: genItems(g, w.preload)}
	for c := 0; c < w.conns; c++ {
		u.absent = append(u.absent, genItems(g, w.absent))
	}
	return u
}

// genItems draws n URLs into one backing array.
func genItems(g *urlgen.Generator, n int) [][]byte {
	out := make([][]byte, n)
	arena := make([]byte, 0, n*72)
	for i := range out {
		start := len(arena)
		arena = append(arena, g.URL()...)
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}

// stream generates one connection's command sequence and keeps the model
// the checks need: which items this connection holds live, and its net
// insert count. Commands on one connection execute in order, so an item is
// live from the moment its add is sent.
type stream struct {
	w      *workload
	rng    *rand.Rand
	gen    *urlgen.Generator
	shared [][]byte // preload, live for every connection, never removed
	own    [][]byte // items this stream added and has not removed
	absent [][]byte
	arena  []byte
	net    int64 // adds minus removes
	op     op
}

func newStream(w *workload, u *universe, seed int64, conn int) *stream {
	s := &stream{
		w:      w,
		rng:    rand.New(rand.NewSource(seed*7919 + int64(conn))),
		gen:    urlgen.New(seed*1000003 + int64(conn) + 1),
		absent: u.absent[conn],
	}
	if w.removes() {
		s.own = append([][]byte(nil), u.preload...)
		s.net = int64(len(u.preload))
	} else {
		s.shared = u.preload
	}
	return s
}

// fresh returns a new item from the stream's own generator.
func (s *stream) fresh() []byte {
	url := s.gen.URL()
	if cap(s.arena)-len(s.arena) < len(url) {
		s.arena = make([]byte, 0, 64<<10)
	}
	start := len(s.arena)
	s.arena = append(s.arena, url...)
	return s.arena[start:len(s.arena):len(s.arena)]
}

func (s *stream) pickLive() []byte {
	i := s.rng.Intn(len(s.shared) + len(s.own))
	if i < len(s.shared) {
		return s.shared[i]
	}
	return s.own[i-len(s.shared)]
}

// liveItems returns every item the stream holds live.
func (s *stream) liveItems() [][]byte {
	return append(append([][]byte(nil), s.shared...), s.own...)
}

// next generates the stream's next command.
func (s *stream) next() *op {
	o := &s.op
	o.items, o.live = o.items[:0], o.live[:0]
	n := s.w.itemsPerCmd
	r := s.rng.Intn(100)
	o.kind = opTest
	switch {
	case r >= s.w.testPct+s.w.addPct:
		o.kind = opRemove
	case r >= s.w.testPct:
		o.kind = opAdd
	}
	if o.kind == opAdd && s.w.liveCap > 0 && len(s.own) >= s.w.liveCap {
		o.kind = opRemove
	}
	if o.kind == opRemove && len(s.own) < n {
		o.kind = opAdd
	}
	switch o.kind {
	case opRemove:
		for i := 0; i < n; i++ {
			j := s.rng.Intn(len(s.own))
			o.items = append(o.items, s.own[j])
			s.own[j] = s.own[len(s.own)-1]
			s.own = s.own[:len(s.own)-1]
		}
		s.net -= int64(n)
	case opAdd:
		for i := 0; i < n; i++ {
			if s.w.readd {
				o.items = append(o.items, s.pickLive())
				continue
			}
			it := s.fresh()
			s.own = append(s.own, it)
			o.items = append(o.items, it)
		}
		if !s.w.readd {
			s.net += int64(n)
		}
	default:
		for i := 0; i < n; i++ {
			live := s.rng.Intn(2) == 0
			if live {
				o.items = append(o.items, s.pickLive())
			} else {
				o.items = append(o.items, s.absent[s.rng.Intn(len(s.absent))])
			}
			o.live = append(o.live, live)
		}
	}
	return o
}
