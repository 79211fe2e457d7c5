// Package service is the multi-tenant serving layer behind
// cmd/oram-server: a registry of named tenants, each backed by its own
// pathoram.Client opened from a shared construction template, plus the
// HTTP/JSON front-end that exposes read/write/batch traffic and
// per-tenant stats over a socket. Tenant isolation is cryptographic and
// physical: tenant i's master key is derived from the service master
// through the domain-separated KDF ('T' tag, pathoram.DeriveTenantKey),
// and under the file backend each tenant's trees live in their own
// subdirectory. Close drains every tenant — Flush, WAL checkpoint, file
// close — surfacing the first backend error, which is what cmd/oram-server
// runs on SIGTERM before exiting.
package service

import (
	crand "crypto/rand"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	pathoram "repro"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	ErrExists   = errors.New("service: tenant already exists")
	ErrNoTenant = errors.New("service: no such tenant")
	ErrClosed   = errors.New("service: draining")
	ErrBadName  = errors.New("service: tenant names are 1-64 chars of [a-zA-Z0-9._-], starting alphanumeric")
)

// nameRE keeps tenant names directory-safe: the leading alphanumeric
// rules out "." / ".." / hidden files, the charset rules out separators.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

const masterKeySize = 16 // pathoram.DeriveTenantKey's AES-128 master

// Config configures the service.
type Config struct {
	// Template is the construction every tenant gets — one
	// pathoram.Open(Template) per tenant, specialized per tenant in
	// exactly two ways: Key becomes the tenant's derived master key, and
	// (under BackendFile) Dir becomes Template.Dir/<tenant-name>.
	// Template.Rand must be nil: tenants draw independent crypto
	// randomness, a shared seeded source would race and correlate them.
	Template pathoram.Spec
	// MasterKey is the 16-byte service master every tenant key is derived
	// from. Nil draws a fresh one at startup (fine for a volatile
	// deployment; a durable one must supply the key, or nothing sealed in
	// a previous process can ever be desealed).
	MasterKey []byte
	// MaxTenants bounds Create (0 = 64): each tenant is a full ORAM
	// instance, so admission must be explicit, not driven by request
	// traffic.
	MaxTenants int
}

// Service is the tenant registry. All methods are safe for concurrent
// use; per-tenant request concurrency is the underlying client's
// (the sharded scheduler serializes per shard).
type Service struct {
	template   pathoram.Spec
	master     []byte
	maxTenants int

	// creating serializes Create, so the index a creation reads is the
	// one it registers; mu guards the registry and is never held across
	// opening a tenant, which may build trees or replay a WAL.
	creating sync.Mutex
	mu       sync.RWMutex
	tenants  map[string]*Tenant
	nextIdx  uint64
	closed   bool
}

// open builds a tenant's client; tests substitute it to hold a creation
// inside it.
var open = pathoram.Open

// Tenant is one named namespace: an index (fixing its derived key) and
// the client serving it.
type Tenant struct {
	Name   string
	Index  uint64
	Client pathoram.Client
}

// New builds the service. No tenants exist yet; Create admits them.
func New(cfg Config) (*Service, error) {
	if cfg.Template.Rand != nil {
		return nil, fmt.Errorf("service: Template.Rand must be nil; tenants draw independent randomness")
	}
	if cfg.Template.Key != nil {
		return nil, fmt.Errorf("service: set the service master in MasterKey, not Template.Key; per-tenant keys are derived from it")
	}
	master := cfg.MasterKey
	if master == nil {
		master = make([]byte, masterKeySize)
		if _, err := crand.Read(master); err != nil {
			return nil, fmt.Errorf("service: drawing master key: %w", err)
		}
	} else if len(master) != masterKeySize {
		return nil, fmt.Errorf("service: master key is %d bytes, want %d", len(master), masterKeySize)
	}
	maxTenants := cfg.MaxTenants
	if maxTenants == 0 {
		maxTenants = 64
	}
	return &Service{
		template:   cfg.Template,
		master:     master,
		maxTenants: maxTenants,
		tenants:    map[string]*Tenant{},
	}, nil
}

// BlockSize returns the tenant-uniform block payload size in bytes.
func (s *Service) BlockSize() int { return s.template.BlockSize }

// Blocks returns the tenant-uniform logical address space size.
func (s *Service) Blocks() uint64 { return s.template.Blocks }

// Create admits a new tenant: derives its key from the service master at
// the next monotone index (indices are never reused, so a re-created
// name gets a fresh key), opens its client, and registers it. Requests to
// other tenants are served while it opens; if Close runs meanwhile, the
// new client is closed again and Create returns ErrClosed.
func (s *Service) Create(name string) (*Tenant, error) {
	if !nameRE.MatchString(name) {
		return nil, ErrBadName
	}
	s.creating.Lock()
	defer s.creating.Unlock()
	s.mu.RLock()
	idx, err := s.nextIdx, s.admits(name)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	spec := s.template
	if spec.Key, err = pathoram.DeriveTenantKey(s.master, idx); err != nil {
		return nil, err
	}
	if spec.Backend == pathoram.BackendFile {
		spec.Dir = filepath.Join(s.template.Dir, name)
	}
	client, err := open(spec)
	if err != nil {
		return nil, fmt.Errorf("service: opening tenant %q: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		client.Close() //nolint:errcheck // never served; the drain is the answer
		return nil, ErrClosed
	}
	t := &Tenant{Name: name, Index: idx, Client: client}
	s.nextIdx++
	s.tenants[name] = t
	return t, nil
}

// admits reports why name cannot be created now, or nil. Caller holds mu.
func (s *Service) admits(name string) error {
	switch _, exists := s.tenants[name]; {
	case s.closed:
		return ErrClosed
	case exists:
		return ErrExists
	case len(s.tenants) >= s.maxTenants:
		return fmt.Errorf("service: tenant limit %d reached", s.maxTenants)
	}
	return nil
}

// Get returns the named tenant, or ErrNoTenant / ErrClosed.
func (s *Service) Get(name string) (*Tenant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	t, ok := s.tenants[name]
	if !ok {
		return nil, ErrNoTenant
	}
	return t, nil
}

// Drop closes the named tenant (Flush → WAL checkpoint → file close) and
// removes it from the registry. Under BackendFile the tenant's directory
// is left in place — dropping revokes service, it does not shred data.
func (s *Service) Drop(name string) error {
	s.mu.Lock()
	t, ok := s.tenants[name]
	if ok {
		delete(s.tenants, name)
	}
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return ErrNoTenant
	}
	return t.Client.Close()
}

// Names returns the registered tenant names, sorted.
func (s *Service) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close drains the service: no new tenants or requests are admitted, and
// every tenant is closed in name order — each close flushes deferred
// write-backs, checkpoints the WAL and closes the tree files. The first
// backend error is returned even when later tenants close cleanly;
// cmd/oram-server exits non-zero on it. Idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	tenants := s.tenants
	s.tenants = map[string]*Tenant{}
	s.mu.Unlock()
	names := make([]string, 0, len(tenants))
	for n := range tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	var first error
	for _, n := range names {
		if err := tenants[n].Client.Close(); err != nil && first == nil {
			first = fmt.Errorf("closing tenant %q: %w", n, err)
		}
	}
	return first
}
