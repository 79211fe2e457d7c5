package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	pathoram "repro"
)

// span is one timed interval at a layer boundary. Spans are recorded only
// from this package, around calls into the layers' exported functions; the
// program under test carries no instrumentation.
type span struct {
	name       string
	id, parent uint64
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. Each recording goroutine
// appends to its own lane, so recording takes no lock.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	lanes  []*lane
}

type lane struct{ spans []span }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newLane(capacity int) *lane {
	l := &lane{spans: make([]span, 0, capacity)}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (l *lane) record(name string, id, parent uint64, start, end int64) {
	l.spans = append(l.spans, span{name, id, parent, start, end})
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its children cover (overlapping children are counted once).
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			from, to := max(k.start, reach), min(k.end, s.end)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// medianBy returns the median over spans of the given name of f(span), in
// nanoseconds, and how many spans there were.
func medianBy(spans []span, name string, f func(span) int64) (float64, int) {
	var v []float64
	for _, s := range spans {
		if s.name == name {
			v = append(v, float64(f(s)))
		}
	}
	return median(v), len(v)
}

// writeSpans writes every span as one NDJSON line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.name, s.id, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// series is one direct layer measurement ("T" in the README): a set of
// calls into a layer, each inside its own span, reported as their median.
type series struct {
	t      *tracer
	name   string
	lane   *lane
	parent uint64
	t0     time.Time
	d      []float64
}

func (t *tracer) series(name string, capacity int) *series {
	return &series{t: t, name: name, lane: t.newLane(capacity + 1), parent: t.id(), d: make([]float64, 0, capacity)}
}

func (s *series) start() { s.t0 = time.Now() }
func (s *series) stop()  { s.add(s.t0, time.Now()) }

func (s *series) add(t0, t1 time.Time) {
	s.lane.record(s.name, s.t.id(), s.parent, s.t.since(t0), s.t.since(t1))
	s.d = append(s.d, float64(t1.Sub(t0)))
}

// median closes the series with a span over the whole set and returns the
// median call in nanoseconds.
func (s *series) median() float64 {
	if n := len(s.lane.spans); n > 0 {
		s.lane.record(s.name+".set", s.parent, 0, s.lane.spans[0].start, s.lane.spans[n-1].end)
	}
	return median(s.d)
}

// traceState is what the HTTP wrappers record into during a traced window.
// Each tenant has one closed-loop connection, so at most one request of a
// tenant is in flight and its lanes are used by one goroutine at a time.
type traceState struct {
	t       *tracer
	tenants []tenantTrace
}

type tenantTrace struct {
	handler, client *lane
	current         atomic.Uint64 // id of the handler span in flight
}

func newTraceState(t *tracer, tenants int) *traceState {
	st := &traceState{t: t, tenants: make([]tenantTrace, tenants)}
	for i := range st.tenants {
		st.tenants[i].handler = t.newLane(1 << 16)
		st.tenants[i].client = t.newLane(1 << 16)
	}
	return st
}

// middleware wraps the service handler with a service.handler span whose
// parent is the loadgen.op span the request header names. Untraced runs
// pass straight through.
func (inst *instance) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := inst.trace.Load()
		h := r.Header.Get(reqIDHeader)
		if st == nil || h == "" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(h, 10, 64)
		tt := &st.tenants[tenantIndex(r.URL.Path)]
		id := st.t.id()
		tt.current.Store(id)
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		tt.handler.record("service.handler", id, parent, st.t.since(start), st.t.since(end))
	})
}

// tenantIndex reads the digit of /v1/t/t<i>/… (tenants are named t0, t1).
func tenantIndex(path string) int {
	const prefix = "/v1/t/t"
	if len(path) > len(prefix) && path[len(prefix)] == '1' {
		return 1
	}
	return 0
}

// tracedClient is assigned to the exported Tenant.Client. It records a
// pathoram.client_op span around the two calls the single-op handlers make,
// under the handler span of the tenant's request in flight.
type tracedClient struct {
	pathoram.Client
	inst   *instance
	tenant int
}

func (c *tracedClient) span(st *traceState, start time.Time) {
	tt := &st.tenants[c.tenant]
	tt.client.record("pathoram.client_op", st.t.id(), tt.current.Load(), st.t.since(start), st.t.since(time.Now()))
}

func (c *tracedClient) Read(addr uint64) ([]byte, error) {
	st := c.inst.trace.Load()
	if st == nil {
		return c.Client.Read(addr)
	}
	start := time.Now()
	out, err := c.Client.Read(addr)
	c.span(st, start)
	return out, err
}

func (c *tracedClient) Write(addr uint64, data []byte) error {
	st := c.inst.trace.Load()
	if st == nil {
		return c.Client.Write(addr, data)
	}
	start := time.Now()
	err := c.Client.Write(addr, data)
	c.span(st, start)
	return err
}
