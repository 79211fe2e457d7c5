package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	pathoram "repro"
	"repro/internal/service"
)

// submission is one client request: a single op, or a batch of one kind.
type submission struct {
	write bool
	addrs []uint64
	data  [][]byte // write payloads and single-read buffers, owned by the client
	out   [][]byte // read results, set by the target
	id    uint64   // span id of the enclosing loadgen.op span (traced runs)
}

// target is what a client goroutine submits to. Each client has its own.
type target interface {
	submit(s *submission) error
}

// clientTarget drives a pathoram.Client in process: single ops through the
// allocation-free ReadInto/Write, batches through ReadBatch/WriteBatch.
type clientTarget struct{ c pathoram.Client }

func (t clientTarget) submit(s *submission) error {
	n := len(s.addrs)
	if n == 1 {
		if s.write {
			return t.c.Write(s.addrs[0], s.data[0])
		}
		_, err := t.c.ReadInto(s.addrs[0], s.data[0])
		s.out = append(s.out[:0], s.data[0])
		return err
	}
	if s.write {
		return t.c.WriteBatch(s.addrs, s.data[:n])
	}
	out, err := t.c.ReadBatch(s.addrs)
	s.out = out
	return err
}

// steppedTarget drives a standalone staged ORAM the way its owner must: one
// StepBackground after every op, inside the timed call.
type steppedTarget struct{ o *pathoram.ORAM }

func (t steppedTarget) submit(s *submission) error {
	if err := (clientTarget{t.o}).submit(s); err != nil {
		return err
	}
	_, err := t.o.StepBackground(true)
	return err
}

// countingConn counts the bytes that cross the socket in either direction.
type countingConn struct {
	net.Conn
	bytes *atomic.Uint64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(uint64(n))
	return n, err
}

// reqIDHeader carries the loadgen.op span id to the handler middleware.
const reqIDHeader = "X-Bench-Span"

// httpTarget is one keep-alive connection to one tenant, single-op POSTs.
type httpTarget struct {
	hc       *http.Client
	readURL  string
	writeURL string
	body     []byte
	resp     struct {
		Addr  uint64 `json:"addr"`
		Data  []byte `json:"data"`
		Error string `json:"error"`
	}
	respBuf bytes.Buffer
}

func newHTTPTarget(base, tenant string, wire *atomic.Uint64) *httpTarget {
	dialer := &net.Dialer{}
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{c, wire}, nil
		},
	}
	return &httpTarget{
		hc:       &http.Client{Transport: tr, Timeout: 30 * time.Second},
		readURL:  base + "/v1/t/" + tenant + "/read",
		writeURL: base + "/v1/t/" + tenant + "/write",
	}
}

func (t *httpTarget) submit(s *submission) error {
	url := t.readURL
	b := append(t.body[:0], `{"addr":`...)
	b = strconv.AppendUint(b, s.addrs[0], 10)
	if s.write {
		url = t.writeURL
		b = append(b, `,"data":"`...)
		b = base64.StdEncoding.AppendEncode(b, s.data[0])
		b = append(b, '"')
	}
	b = append(b, '}')
	t.body = b
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	if s.id != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatUint(s.id, 10))
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return err
	}
	t.respBuf.Reset()
	_, err = io.Copy(&t.respBuf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	t.resp.Data, t.resp.Error = t.resp.Data[:0], ""
	if err := json.Unmarshal(t.respBuf.Bytes(), &t.resp); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, t.resp.Error)
	}
	if t.resp.Addr != s.addrs[0] {
		return fmt.Errorf("reply for addr %d, asked %d", t.resp.Addr, s.addrs[0])
	}
	if !s.write {
		s.out = append(s.out[:0], t.resp.Data)
	}
	return nil
}

func (t *httpTarget) close() { t.hc.CloseIdleConnections() }

// instance is one built and prefilled system under test.
type instance struct {
	w       *workload
	targets []target          // one per client goroutine
	orams   []pathoram.Client // the trees behind them, for counters
	// shadows holds, per tree, the version last written to each address:
	// 1 after prefill. With the content rule of gen.go it is the shadow
	// copy every read is checked against.
	shadows [][]atomic.Uint32
	handler http.Handler // the bare service handler (http only), for direct calls
	paths   *pathCounter
	wire    atomic.Uint64              // socket bytes (http only)
	trace   atomic.Pointer[traceState] // set for a traced window; read by the HTTP wrappers
	closers []func() error
}

// buildInstance opens the workload's construction and prefills every block
// through WriteBatch and a final Flush; its wall time is setup_s.
func buildInstance(w *workload, seed int64) (*instance, time.Duration, error) {
	start := time.Now()
	inst := &instance{w: w, paths: &pathCounter{}}
	if err := inst.open(seed); err != nil {
		inst.close() //nolint:errcheck // the open error is the one to report
		return nil, 0, err
	}
	for _, c := range inst.orams {
		if err := prefill(c, benchBlocks, w.blockSize()); err != nil {
			inst.close() //nolint:errcheck // the prefill error is the one to report
			return nil, 0, err
		}
		shadow := make([]atomic.Uint32, benchBlocks)
		for a := range shadow {
			shadow[a].Store(1)
		}
		inst.shadows = append(inst.shadows, shadow)
	}
	return inst, time.Since(start), nil
}

func (inst *instance) open(seed int64) error {
	w := inst.w
	dir := ""
	if w.file {
		var err error
		if dir, err = scratchDir(); err != nil {
			return err
		}
		inst.closers = append(inst.closers, func() error { return os.RemoveAll(dir) })
	}
	if w.bare != nil {
		cfg := w.bare(dir)
		o, err := pathoram.New(cfg)
		if err != nil {
			return err
		}
		inst.closers = append(inst.closers, o.Close)
		inst.orams = []pathoram.Client{o}
		inst.targets = []target{clientTarget{o}}
		if cfg.AsyncEviction {
			inst.targets[0] = steppedTarget{o}
		}
		return nil
	}
	spec := w.spec(seed, dir)
	spec.Shards = w.shards
	spec.OnPathAccess = inst.paths.hook
	if w.tenants > 0 {
		return inst.serve(spec)
	}
	c, err := pathoram.Open(spec)
	if err != nil {
		return err
	}
	inst.closers = append(inst.closers, c.Close)
	inst.orams = []pathoram.Client{c}
	for i := 0; i < w.clients; i++ {
		inst.targets = append(inst.targets, clientTarget{c})
	}
	return nil
}

// serve wires what cmd/oram-server wires — service.New, Handler() on an
// http.Server — on a loopback port inside this process, creates the
// tenants and gives each its own connection.
func (inst *instance) serve(template pathoram.Spec) error {
	svc, err := service.New(service.Config{Template: template})
	if err != nil {
		return err
	}
	inst.closers = append(inst.closers, svc.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	inst.handler = svc.Handler()
	srv := &http.Server{Handler: inst.middleware(inst.handler)}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after Shutdown
		close(done)
	}()
	inst.closers = append(inst.closers, func() error {
		err := srv.Shutdown(context.Background())
		<-done
		return err
	})
	base := "http://" + ln.Addr().String()
	for i := 0; i < inst.w.tenants; i++ {
		name := "t" + strconv.Itoa(i)
		t, err := svc.Create(name)
		if err != nil {
			return err
		}
		t.Client = &tracedClient{Client: t.Client, inst: inst, tenant: i}
		inst.orams = append(inst.orams, t.Client)
		ht := newHTTPTarget(base, name, &inst.wire)
		inst.targets = append(inst.targets, ht)
		inst.closers = append(inst.closers, func() error { ht.close(); return nil })
	}
	return nil
}

// prefill writes version 1 of every block (nil payloads when blockSize is 0).
func prefill(c pathoram.Client, blocks uint64, blockSize int) error {
	addrs := make([]uint64, 0, prefillBatch)
	data := make([][]byte, prefillBatch)
	for i := range data {
		if blockSize > 0 {
			data[i] = make([]byte, blockSize)
		}
	}
	for a := uint64(0); a < blocks; {
		addrs = addrs[:0]
		for ; a < blocks && len(addrs) < prefillBatch; a++ {
			if blockSize > 0 {
				fillBlock(data[len(addrs)], a, 1)
			}
			addrs = append(addrs, a)
		}
		if err := c.WriteBatch(addrs, data[:len(addrs)]); err != nil {
			return err
		}
	}
	return c.Flush()
}

// close releases everything in reverse order of construction and reports
// the first error.
func (inst *instance) close() error {
	var first error
	for i := len(inst.closers) - 1; i >= 0; i-- {
		if err := inst.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	inst.closers = nil
	return first
}
