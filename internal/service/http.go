package service

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	pathoram "repro"
)

// Wire types. Data rides as base64 (encoding/json's []byte convention);
// every block is exactly the service's BlockSize.
type opRequest struct {
	// Op selects the operation on the batch endpoint ("read" | "write");
	// the single-op endpoints fix it by URL and ignore the field.
	Op   string `json:"op,omitempty"`
	Addr uint64 `json:"addr"`
	Data []byte `json:"data,omitempty"`
}

type opResult struct {
	Addr uint64 `json:"addr"`
	Data []byte `json:"data,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

type statsBody struct {
	Tenant            string                `json:"tenant"`
	Stats             pathoram.Stats        `json:"stats"`
	Timing            *pathoram.TimingStats `json:"timing,omitempty"`
	StashSize         int                   `json:"stash_size"`
	PendingWriteBacks int                   `json:"pending_writebacks"`
	OnChipBytes       uint64                `json:"onchip_bytes"`
	ExternalBytes     uint64                `json:"external_bytes"`
}

// Handler returns the service's HTTP API:
//
//	GET    /healthz                 liveness
//	GET    /v1/tenants              list tenant names
//	PUT    /v1/tenants/{name}       create a tenant (201; 409 if present)
//	DELETE /v1/tenants/{name}       drop a tenant (flush + close its trees)
//	POST   /v1/t/{name}/read        {"addr":N} → {"addr":N,"data":base64}
//	POST   /v1/t/{name}/write       {"addr":N,"data":base64} → {"addr":N}
//	POST   /v1/t/{name}/batch       NDJSON op stream → NDJSON result stream
//	GET    /v1/t/{name}/stats       protocol + timing counters (admin)
//
// Errors are {"error":...} with 400 (malformed), 404 (no tenant), 409
// (exists), 413 (a single-op body longer than one block's op can be), 503
// (draining, or the tenant closed mid-request).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"tenants": s.Names()})
	})
	mux.HandleFunc("PUT /v1/tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		t, err := s.Create(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"tenant": t.Name, "index": t.Index})
	})
	mux.HandleFunc("DELETE /v1/tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Drop(r.PathValue("name")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "dropped"})
	})
	mux.HandleFunc("POST /v1/t/{name}/read", s.tenantHandler(s.handleRead))
	mux.HandleFunc("POST /v1/t/{name}/write", s.tenantHandler(s.handleWrite))
	mux.HandleFunc("POST /v1/t/{name}/batch", s.tenantHandler(s.handleBatch))
	mux.HandleFunc("GET /v1/t/{name}/stats", s.tenantHandler(s.handleStats))
	return mux
}

// tenantHandler resolves {name} and maps registry errors before the
// per-endpoint logic runs.
func (s *Service) tenantHandler(fn func(w http.ResponseWriter, r *http.Request, t *Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.Get(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		fn(w, r, t)
	}
}

// opEnvelope is the room a single-op body gets beyond its block's base64:
// the JSON keys, the largest address and whitespace.
const opEnvelope = 256

// opLimit is the longest op a block needs: a single-op body, or one line
// of a batch stream. Nothing longer is buffered, so a client cannot make
// the decoder hold an unbounded value.
func (s *Service) opLimit() int {
	return base64.StdEncoding.EncodedLen(s.template.BlockSize) + opEnvelope
}

// decodeOp decodes a single-op body into req, or answers the request
// itself and reports false. The body is cut off at opLimit (413 beyond
// it) and holds exactly one op, like a batch line: anything but
// whitespace after the object is malformed (400).
func (s *Service) decodeOp(w http.ResponseWriter, r *http.Request, req *opRequest) bool {
	limit := s.opLimit()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(limit)))
	err := dec.Decode(req)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("more than one value in the body")
		}
	}
	var tooLong *http.MaxBytesError
	switch {
	case errors.As(err, &tooLong):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", limit)})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed request: " + err.Error()})
	default:
		return true
	}
	return false
}

func (s *Service) handleRead(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req opRequest
	if !s.decodeOp(w, r, &req) {
		return
	}
	if len(req.Data) != 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("read of addr %d carries data", req.Addr)})
		return
	}
	data, err := t.Client.Read(req.Addr)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, opResult{Addr: req.Addr, Data: data})
}

func (s *Service) handleWrite(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req opRequest
	if !s.decodeOp(w, r, &req) {
		return
	}
	if len(req.Data) != s.template.BlockSize {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("data is %d bytes, want the block size %d", len(req.Data), s.template.BlockSize)})
		return
	}
	if err := t.Client.Write(req.Addr, req.Data); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, opResult{Addr: req.Addr})
}

// batchRun caps how many decoded ops a same-op run accumulates before it
// is submitted to the scheduler — bounding memory for unbounded streams
// while keeping submissions large enough to fan out across shards.
const batchRun = 256

// handleBatch streams NDJSON ops in and NDJSON results out, in input
// order. Maximal runs of the same op are submitted as one ReadBatch /
// WriteBatch, so a streamed batch enters the sharded scheduler exactly
// like a native batched client. A line longer than opLimit is refused
// unread: 413 if it is the first, else like a malformed line. A bad line
// submits the ops before it, then emits one {"error":...} line and ends
// the stream; so does a failed submission (results already emitted
// stand).
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request, t *Tenant) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	limit := s.opLimit()
	lines := bufio.NewReaderSize(r.Body, limit+1) // the line and its newline
	enc := json.NewEncoder(w)
	fail := func(err error) { enc.Encode(errorBody{Error: err.Error()}) } //nolint:errcheck // stream already ends here

	var (
		op    string
		addrs []uint64
		data  [][]byte
	)
	flush := func() error {
		if len(addrs) == 0 {
			return nil
		}
		if op == "write" {
			if err := t.Client.WriteBatch(addrs, data); err != nil {
				return err
			}
			for _, a := range addrs {
				if err := enc.Encode(opResult{Addr: a}); err != nil {
					return err
				}
			}
		} else {
			results, err := t.Client.ReadBatch(addrs)
			if err != nil {
				return err
			}
			for i, a := range addrs {
				if err := enc.Encode(opResult{Addr: a, Data: results[i]}); err != nil {
					return err
				}
			}
		}
		addrs, data = addrs[:0], data[:0]
		return nil
	}
	for first := true; ; first = false {
		var req opRequest
		err := nextOp(lines, &req)
		if err == io.EOF {
			break
		}
		switch {
		case err == bufio.ErrBufferFull && first:
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("op line exceeds %d bytes", limit)})
			return
		case err == bufio.ErrBufferFull:
			err = fmt.Errorf("op line exceeds %d bytes", limit)
		case err != nil:
			err = fmt.Errorf("malformed op: %w", err)
		case req.Op == "read":
			if len(req.Data) != 0 {
				err = fmt.Errorf("read op for addr %d carries data", req.Addr)
			}
		case req.Op == "write":
			if len(req.Data) != s.template.BlockSize {
				err = fmt.Errorf("write op for addr %d: data is %d bytes, want %d", req.Addr, len(req.Data), s.template.BlockSize)
			}
		default:
			err = fmt.Errorf("unknown op %q (want read|write)", req.Op)
		}
		if err != nil {
			if ferr := flush(); ferr != nil {
				err = ferr
			}
			fail(err)
			return
		}
		if req.Op != op || len(addrs) >= batchRun {
			if err := flush(); err != nil {
				fail(err)
				return
			}
			op = req.Op
		}
		addrs = append(addrs, req.Addr)
		if req.Op == "write" {
			data = append(data, req.Data)
		}
	}
	if err := flush(); err != nil {
		fail(err)
	}
}

// nextOp decodes the next non-blank line of an NDJSON stream into req.
// It returns io.EOF at the end of the stream and bufio.ErrBufferFull for
// a line that does not fit the reader's buffer.
func nextOp(lines *bufio.Reader, req *opRequest) error {
	for {
		line, err := lines.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return err
		}
		if len(bytes.TrimSpace(line)) > 0 {
			// A last line without its newline comes with io.EOF; the next
			// call reports the end.
			return json.Unmarshal(line, req)
		}
		if err != nil {
			return err
		}
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request, t *Tenant) {
	body := statsBody{
		Tenant:            t.Name,
		PendingWriteBacks: t.Client.PendingWriteBacks(),
		Stats:             t.Client.Stats(),
		StashSize:         t.Client.StashSize(),
		OnChipBytes:       t.Client.OnChipBytes(),
		ExternalBytes:     t.Client.ExternalMemoryBytes(),
	}
	if ts, ok := t.Client.TimingStats(); ok {
		body.Timing = &ts
	}
	writeJSON(w, http.StatusOK, body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // response already committed
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNoTenant):
		status = http.StatusNotFound
	case errors.Is(err, ErrExists):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed), errors.Is(err, pathoram.ErrClosed):
		// The registry is draining, or the tenant's client closed under a
		// request that had already resolved it (Drop, Close).
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}
