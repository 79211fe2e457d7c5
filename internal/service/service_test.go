package service_test

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	pathoram "repro"
	"repro/internal/service"
)

// newServer builds a service over the given template and wraps it in an
// httptest server. Cleanup drains the service (asserting a clean close)
// before the listener goes away.
func newServer(t *testing.T, spec pathoram.Spec) (*service.Service, *httptest.Server) {
	t.Helper()
	svc, err := service.New(service.Config{Template: spec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := svc.Close(); err != nil {
			t.Errorf("draining service: %v", err)
		}
	})
	return svc, ts
}

func memSpec() pathoram.Spec {
	return pathoram.Spec{Blocks: 256, BlockSize: 16, Encryption: pathoram.EncryptCounter}
}

func fileSpec(t *testing.T) pathoram.Spec {
	s := memSpec()
	s.Backend = pathoram.BackendFile
	s.Dir = t.TempDir()
	s.WAL = true
	s.AsyncEviction = true
	return s
}

// doJSON posts body to url and decodes the JSON response into out,
// returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

type wireOp struct {
	Op   string `json:"op,omitempty"`
	Addr uint64 `json:"addr"`
	Data []byte `json:"data,omitempty"`
}

type wireResult struct {
	Addr  uint64 `json:"addr"`
	Data  []byte `json:"data,omitempty"`
	Error string `json:"error,omitempty"`
}

func TestServerTenantLifecycle(t *testing.T) {
	_, ts := newServer(t, memSpec())

	if got := doJSON(t, "PUT", ts.URL+"/v1/tenants/alice", nil, nil); got != http.StatusCreated {
		t.Fatalf("create alice: status %d, want 201", got)
	}
	if got := doJSON(t, "PUT", ts.URL+"/v1/tenants/alice", nil, nil); got != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", got)
	}
	for _, bad := range []string{".hidden", "a/b", "%2e%2e", strings.Repeat("x", 65)} {
		if got := doJSON(t, "PUT", ts.URL+"/v1/tenants/"+bad, nil, nil); got != http.StatusBadRequest && got != http.StatusNotFound {
			t.Errorf("create %q: status %d, want 400 (or unroutable 404)", bad, got)
		}
	}
	doJSON(t, "PUT", ts.URL+"/v1/tenants/bob", nil, nil)
	var list struct {
		Tenants []string `json:"tenants"`
	}
	if got := doJSON(t, "GET", ts.URL+"/v1/tenants", nil, &list); got != http.StatusOK {
		t.Fatalf("list: status %d", got)
	}
	if want := []string{"alice", "bob"}; fmt.Sprint(list.Tenants) != fmt.Sprint(want) {
		t.Fatalf("tenants = %v, want %v", list.Tenants, want)
	}
	if got := doJSON(t, "DELETE", ts.URL+"/v1/tenants/bob", nil, nil); got != http.StatusOK {
		t.Fatalf("drop bob: status %d", got)
	}
	if got := doJSON(t, "DELETE", ts.URL+"/v1/tenants/bob", nil, nil); got != http.StatusNotFound {
		t.Fatalf("double drop: status %d, want 404", got)
	}
	if got := doJSON(t, "POST", ts.URL+"/v1/t/carol/read", wireOp{Addr: 1}, nil); got != http.StatusNotFound {
		t.Fatalf("read on unknown tenant: status %d, want 404", got)
	}
}

// TestServerReadYourWritesConcurrentTenants is the e2e acceptance test:
// several tenants on a file+WAL backend, each hammered by concurrent
// clients over the socket, every read observing that client's latest
// write (the scheduler serializes per tenant), and tenants never seeing
// each other's blocks.
func TestServerReadYourWritesConcurrentTenants(t *testing.T) {
	spec := fileSpec(t)
	_, ts := newServer(t, spec)

	tenants := []string{"alice", "bob", "carol"}
	for _, name := range tenants {
		if got := doJSON(t, "PUT", ts.URL+"/v1/tenants/"+name, nil, nil); got != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, got)
		}
	}
	const (
		clientsPerTenant = 4
		opsPerClient     = 24
	)
	var wg sync.WaitGroup
	errc := make(chan error, len(tenants)*clientsPerTenant)
	for ti, name := range tenants {
		for cl := 0; cl < clientsPerTenant; cl++ {
			wg.Add(1)
			go func(ti, cl int, name string) {
				defer wg.Done()
				for i := 0; i < opsPerClient; i++ {
					// Clients of one tenant write disjoint addresses, so
					// read-your-writes is deterministic under concurrency.
					addr := uint64(cl*opsPerClient + i)
					payload := []byte(fmt.Sprintf("%s-%02d-%011d", name[:1], cl, i))
					if got := doJSON(t, "POST", ts.URL+"/v1/t/"+name+"/write", wireOp{Addr: addr, Data: payload}, nil); got != http.StatusOK {
						errc <- fmt.Errorf("%s write %d: status %d", name, addr, got)
						return
					}
					var res wireResult
					if got := doJSON(t, "POST", ts.URL+"/v1/t/"+name+"/read", wireOp{Addr: addr}, &res); got != http.StatusOK {
						errc <- fmt.Errorf("%s read %d: status %d", name, addr, got)
						return
					}
					if !bytes.Equal(res.Data, payload) {
						errc <- fmt.Errorf("%s addr %d: read %q, want %q", name, addr, res.Data, payload)
						return
					}
				}
				_ = ti
			}(ti, cl, name)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// Isolation: an address alice wrote reads as never-written under a
	// tenant that did not write it (fresh zero block), not alice's data.
	var res wireResult
	probe := uint64(clientsPerTenant*opsPerClient + 7)
	doJSON(t, "POST", ts.URL+"/v1/t/alice/write", wireOp{Addr: probe, Data: []byte("alice-secret-nnn")}, nil)
	if got := doJSON(t, "POST", ts.URL+"/v1/t/bob/read", wireOp{Addr: probe}, &res); got != http.StatusOK {
		t.Fatalf("bob probe read: status %d", got)
	}
	if bytes.Contains(res.Data, []byte("alice")) {
		t.Fatalf("tenant isolation broken: bob read %q", res.Data)
	}
}

func TestServerBatchNDJSON(t *testing.T) {
	_, ts := newServer(t, memSpec())
	doJSON(t, "PUT", ts.URL+"/v1/tenants/alice", nil, nil)

	// Mixed stream: a run of writes, then reads of the same addresses,
	// then one more write — exercising the run-grouped submission.
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	const n = 20
	for i := 0; i < n; i++ {
		enc.Encode(wireOp{Op: "write", Addr: uint64(i), Data: []byte(fmt.Sprintf("batch-%010d", i))})
	}
	for i := 0; i < n; i++ {
		enc.Encode(wireOp{Op: "read", Addr: uint64(i)})
	}
	enc.Encode(wireOp{Op: "write", Addr: 99, Data: bytes.Repeat([]byte("z"), 16)})

	resp, err := http.Post(ts.URL+"/v1/t/alice/batch", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var results []wireResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r wireResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad result line %q: %v", sc.Text(), err)
		}
		if r.Error != "" {
			t.Fatalf("batch error: %s", r.Error)
		}
		results = append(results, r)
	}
	if len(results) != 2*n+1 {
		t.Fatalf("got %d result lines, want %d", len(results), 2*n+1)
	}
	for i := 0; i < n; i++ {
		r := results[n+i]
		if want := fmt.Sprintf("batch-%010d", i); r.Addr != uint64(i) || string(r.Data) != want {
			t.Fatalf("read result %d = addr %d data %q, want addr %d data %q", i, r.Addr, r.Data, i, want)
		}
	}

	// A malformed op ends the stream with one error line.
	resp2, err := http.Post(ts.URL+"/v1/t/alice/batch", "application/x-ndjson",
		strings.NewReader(`{"op":"transmute","addr":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var errLine wireResult
	if err := json.NewDecoder(resp2.Body).Decode(&errLine); err != nil || errLine.Error == "" {
		t.Fatalf("malformed op: got line %+v err %v, want an error line", errLine, err)
	}
}

func TestServerStatsEndpoint(t *testing.T) {
	_, ts := newServer(t, memSpec())
	doJSON(t, "PUT", ts.URL+"/v1/tenants/alice", nil, nil)
	doJSON(t, "POST", ts.URL+"/v1/t/alice/write", wireOp{Addr: 1, Data: bytes.Repeat([]byte("a"), 16)}, nil)

	var body struct {
		Tenant string `json:"tenant"`
		Stats  struct {
			RealAccesses uint64
		} `json:"stats"`
		OnChipBytes uint64 `json:"onchip_bytes"`
	}
	if got := doJSON(t, "GET", ts.URL+"/v1/t/alice/stats", nil, &body); got != http.StatusOK {
		t.Fatalf("stats: status %d", got)
	}
	if body.Tenant != "alice" || body.Stats.RealAccesses == 0 || body.OnChipBytes == 0 {
		t.Fatalf("stats body looks empty: %+v", body)
	}
}

// TestServerStatsReportsBacklog: the stats gauge pending_writebacks shows
// the deferred write-backs a tenant owes. A BackendDRAM + AsyncEviction
// tenant has no idle pump, so after a run of writes its backlog is
// non-empty until a snapshot flushes it, and the gauge must be read before
// the body's other snapshots do.
func TestServerStatsReportsBacklog(t *testing.T) {
	spec := memSpec()
	spec.Backend, spec.AsyncEviction = pathoram.BackendDRAM, true
	_, ts := newServer(t, spec)
	doJSON(t, "PUT", ts.URL+"/v1/tenants/alice", nil, nil)
	for a := uint64(0); a < 20; a++ {
		doJSON(t, "POST", ts.URL+"/v1/t/alice/write", wireOp{Addr: a, Data: bytes.Repeat([]byte("a"), 16)}, nil)
	}
	var body struct {
		Pending int `json:"pending_writebacks"`
	}
	if got := doJSON(t, "GET", ts.URL+"/v1/t/alice/stats", nil, &body); got != http.StatusOK {
		t.Fatalf("stats: status %d", got)
	}
	if body.Pending == 0 {
		t.Error("stats reported pending_writebacks 0 after 20 deferred writes")
	}
}

// TestServerSingleOpOnClosedTenant: a read or write that resolved its
// tenant just before the tenant's client closed (Drop, or the drain in
// Service.Close) is told the service is unavailable, not that it was
// malformed. Requests that are malformed stay 400.
func TestServerSingleOpOnClosedTenant(t *testing.T) {
	svc, ts := newServer(t, memSpec())
	if got := doJSON(t, "POST", ts.URL+"/v1/t/x/read", wireOp{Addr: 1}, nil); got != http.StatusNotFound {
		t.Fatalf("read on unknown tenant: status %d, want 404", got)
	}
	tenant, err := svc.Create("alice")
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte("a"), 16)
	if got := doJSON(t, "POST", ts.URL+"/v1/t/alice/read", wireOp{Addr: 256}, nil); got != http.StatusBadRequest {
		t.Errorf("out-of-range read: status %d, want 400", got)
	}
	if got := doJSON(t, "POST", ts.URL+"/v1/t/alice/write", wireOp{Addr: 1, Data: block[:3]}, nil); got != http.StatusBadRequest {
		t.Errorf("short write: status %d, want 400", got)
	}
	if err := tenant.Client.Close(); err != nil {
		t.Fatal(err)
	}
	if got := doJSON(t, "POST", ts.URL+"/v1/t/alice/read", wireOp{Addr: 1}, nil); got != http.StatusServiceUnavailable {
		t.Errorf("read on a closed tenant: status %d, want 503", got)
	}
	if got := doJSON(t, "POST", ts.URL+"/v1/t/alice/write", wireOp{Addr: 1, Data: block}, nil); got != http.StatusServiceUnavailable {
		t.Errorf("write on a closed tenant: status %d, want 503", got)
	}
}

// TestServerSingleOpBodyBounded: a single-op body longer than any op on
// one block is refused with 413 before it is buffered, on both endpoints,
// and the tenant serves the next valid request as usual.
func TestServerSingleOpBodyBounded(t *testing.T) {
	_, ts := newServer(t, memSpec())
	doJSON(t, "PUT", ts.URL+"/v1/tenants/alice", nil, nil)
	block := bytes.Repeat([]byte("b"), 16)
	huge := wireOp{Addr: 1, Data: bytes.Repeat([]byte("x"), 1<<20)}
	for _, op := range []string{"read", "write"} {
		if got := doJSON(t, "POST", ts.URL+"/v1/t/alice/"+op, huge, nil); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a 1 MiB body: status %d, want 413", op, got)
		}
	}
	if got := doJSON(t, "POST", ts.URL+"/v1/t/alice/write", wireOp{Addr: 1, Data: block}, nil); got != http.StatusOK {
		t.Fatalf("write after the refused bodies: status %d, want 200", got)
	}
	var res wireResult
	if got := doJSON(t, "POST", ts.URL+"/v1/t/alice/read", wireOp{Addr: 1}, &res); got != http.StatusOK || !bytes.Equal(res.Data, block) {
		t.Fatalf("read after the refused bodies: status %d, data %q", got, res.Data)
	}
}

// TestServerSingleOpBodyStrict: a single-op body holds exactly one op, as
// a batch line does. A second object, trailing junk or a read that carries
// data is 400 and runs nothing; trailing whitespace is accepted.
func TestServerSingleOpBodyStrict(t *testing.T) {
	_, ts := newServer(t, memSpec())
	doJSON(t, "PUT", ts.URL+"/v1/tenants/alice", nil, nil)
	block := bytes.Repeat([]byte("c"), 16)
	data := base64.StdEncoding.EncodeToString(block)
	for _, tc := range []struct {
		op, body string
		want     int
	}{
		{"read", `{"addr":1}{"addr":2}`, http.StatusBadRequest},
		{"write", `{"addr":1,"data":"` + data + `"} trailing junk`, http.StatusBadRequest},
		{"read", `{"addr":1,"data":"` + data + `"}`, http.StatusBadRequest},
		{"read", "{\"addr\":1}\n", http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/v1/t/alice/"+tc.op, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %q: status %d, want %d", tc.op, tc.body, resp.StatusCode, tc.want)
		}
	}
	var res wireResult
	if got := doJSON(t, "POST", ts.URL+"/v1/t/alice/read", wireOp{Addr: 1}, &res); got != http.StatusOK || bytes.Equal(res.Data, block) {
		t.Fatalf("read after the refused write: status %d, data %q (the write must not have landed)", got, res.Data)
	}
}

// TestServerBatchLineBounded: a batch line longer than any op on one block
// is refused before it is buffered. As the first line it answers 413; as
// a later line it ends the stream with one error line after the results
// of the ops before it. The tenant serves the next request as usual.
func TestServerBatchLineBounded(t *testing.T) {
	_, ts := newServer(t, memSpec())
	doJSON(t, "PUT", ts.URL+"/v1/tenants/alice", nil, nil)
	block := bytes.Repeat([]byte("b"), 16)
	huge := wireOp{Op: "write", Addr: 2, Data: bytes.Repeat([]byte("x"), 1<<20)}
	post := func(ops ...wireOp) *http.Response {
		var in bytes.Buffer
		enc := json.NewEncoder(&in)
		for _, op := range ops {
			enc.Encode(op)
		}
		resp, err := http.Post(ts.URL+"/v1/t/alice/batch", "application/x-ndjson", &in)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("batch opening with a 1 MiB line: status %d, want 413", resp.StatusCode)
	}
	resp := post(wireOp{Op: "write", Addr: 1, Data: block}, huge)
	var lines []wireResult
	dec := json.NewDecoder(resp.Body)
	for {
		var r wireResult
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, r)
	}
	if len(lines) != 2 || lines[0].Error != "" || lines[0].Addr != 1 || lines[1].Error == "" {
		t.Fatalf("batch with a 1 MiB second line answered %+v, want the first result then an error line", lines)
	}
	var res wireResult
	if got := doJSON(t, "POST", ts.URL+"/v1/t/alice/read", wireOp{Addr: 1}, &res); got != http.StatusOK || !bytes.Equal(res.Data, block) {
		t.Fatalf("read after the refused line: status %d, data %q", got, res.Data)
	}
}

// TestServerDrainCheckpointsTenants pins the drain protocol: after Close
// every endpoint answers 503, and each file-backed tenant's WAL has been
// checkpointed into its tree file (empty log on disk).
func TestServerDrainCheckpointsTenants(t *testing.T) {
	spec := fileSpec(t)
	svc, err := service.New(service.Config{Template: spec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	doJSON(t, "PUT", ts.URL+"/v1/tenants/alice", nil, nil)
	for i := 0; i < 16; i++ {
		doJSON(t, "POST", ts.URL+"/v1/t/alice/write", wireOp{Addr: uint64(i), Data: bytes.Repeat([]byte("d"), 16)}, nil)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second drain not idempotent: %v", err)
	}
	if got := doJSON(t, "POST", ts.URL+"/v1/t/alice/read", wireOp{Addr: 1}, nil); got != http.StatusServiceUnavailable {
		t.Fatalf("read after drain: status %d, want 503", got)
	}
	if got := doJSON(t, "PUT", ts.URL+"/v1/tenants/late", nil, nil); got != http.StatusServiceUnavailable {
		t.Fatalf("create after drain: status %d, want 503", got)
	}
	wals, err := filepath.Glob(filepath.Join(spec.Dir, "alice", "*.wal"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL files under the tenant dir (err=%v)", err)
	}
	for _, w := range wals {
		st, err := os.Stat(w)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != 0 {
			t.Fatalf("%s: %d bytes after drain, want 0 (checkpoint truncates)", w, st.Size())
		}
	}
}

// TestServerTenantKeysAreDomainSeparated pins the KDF wiring: distinct
// indices give distinct tenant keys, and the master itself is rejected
// at the wrong size.
func TestServerTenantKeysAreDomainSeparated(t *testing.T) {
	master := bytes.Repeat([]byte{7}, 16)
	k0, err := pathoram.DeriveTenantKey(master, 0)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := pathoram.DeriveTenantKey(master, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k0, k1) || bytes.Equal(k0, master) {
		t.Fatal("tenant keys must be pairwise distinct and distinct from the master")
	}
	if _, err := pathoram.DeriveTenantKey(master[:8], 0); err == nil {
		t.Fatal("short master accepted")
	}
}
