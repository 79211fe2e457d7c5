package explore

import (
	"flag"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	pathoram "repro"
)

// parse runs args through BindSpec the way the binaries do — their default
// working set, then the command line — and then through the rule table, as
// Open would.
func parse(args ...string) (pathoram.Spec, error) {
	spec := pathoram.Spec{Blocks: 1 << 14, BlockSize: 64}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	BindSpec(fs, &spec)
	if err := fs.Parse(args); err != nil {
		return spec, err
	}
	return spec, spec.Validate()
}

func TestSpecFlagsTable(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantErr    string // substring of the parse or rule-table error, "" = ok
		shards     int
		wantSpec   func(t *testing.T, s pathoram.Spec)
		wantOpenOK bool // additionally Open a small instance and close it
	}{
		{
			name:   "defaults build a flat mem spec",
			args:   nil,
			shards: 2,
			wantSpec: func(t *testing.T, s pathoram.Spec) {
				if s.Shards != 2 || s.Backend != pathoram.BackendMem {
					t.Errorf("got shards=%d backend=%v", s.Shards, s.Backend)
				}
				if s.Encryption != pathoram.EncryptCounter {
					t.Errorf("default encryption = %v, want counter", s.Encryption)
				}
			},
		},
		{
			// The PR 6 regression: under -backend mem the DRAM knobs must
			// NOT be copied into the Spec even at their flag defaults
			// (channels=2, layout=subtree) — Open rejects inert knobs, so a
			// mem spec carrying them fails construction.
			name:   "mem backend leaves DRAM knobs zero so Open accepts",
			args:   []string{"-blocks", "256", "-blocksize", "16", "-backend", "mem"},
			shards: 1,
			wantSpec: func(t *testing.T, s pathoram.Spec) {
				if s.DRAMChannels != 0 || s.DRAMLayout != 0 || s.DRAMSerialize {
					t.Errorf("mem spec carries DRAM knobs: channels=%d layout=%v serialize=%v",
						s.DRAMChannels, s.DRAMLayout, s.DRAMSerialize)
				}
			},
			wantOpenOK: true,
		},
		{
			name:   "dram backend carries its knobs",
			args:   []string{"-backend", "dram", "-channels", "4", "-layout", "naive", "-dram-serialize"},
			shards: 2,
			wantSpec: func(t *testing.T, s pathoram.Spec) {
				if s.Backend != pathoram.BackendDRAM || s.DRAMChannels != 4 ||
					s.DRAMLayout != pathoram.LayoutNaive || !s.DRAMSerialize {
					t.Errorf("dram knobs not carried: %+v", s)
				}
			},
		},
		{
			name:   "flat posmap leaves recursion knobs zero",
			args:   []string{"-posmap", "flat"},
			shards: 1,
			wantSpec: func(t *testing.T, s pathoram.Spec) {
				if s.PosMap != pathoram.PosMapOnChip || s.PosBlockSize != 0 || s.OnChipPosMapMax != 0 {
					t.Errorf("flat spec carries recursion knobs: %+v", s)
				}
			},
		},
		{
			name:   "recursive posmap carries its knobs",
			args:   []string{"-posmap", "recursive", "-pos-block", "64", "-onchip-max", "1024"},
			shards: 1,
			wantSpec: func(t *testing.T, s pathoram.Spec) {
				if s.PosMap != pathoram.PosMapRecursive || s.PosBlockSize != 64 || s.OnChipPosMapMax != 1024 {
					t.Errorf("recursion knobs not carried: %+v", s)
				}
			},
		},
		{
			name:   "seed makes deterministic randomness",
			args:   []string{"-seed", "7"},
			shards: 1,
			wantSpec: func(t *testing.T, s pathoram.Spec) {
				if s.Rand == nil {
					t.Error("seeded flags left Spec.Rand nil")
				}
			},
		},
		{
			name:    "explicit channels under mem rejected",
			args:    []string{"-channels", "4"},
			shards:  1,
			wantErr: "DRAMChannels/DRAMLayout/DRAMSerialize parameterize the timed backend",
		},
		{
			name:    "explicit layout under mem rejected",
			args:    []string{"-layout", "naive"},
			shards:  1,
			wantErr: "DRAMChannels/DRAMLayout/DRAMSerialize parameterize the timed backend",
		},
		{
			name:    "explicit pos-block under flat posmap rejected",
			args:    []string{"-pos-block", "64"},
			shards:  1,
			wantErr: "PosBlockSize/OnChipPosMapMax/PosZ parameterize the recursive position map",
		},
		{
			name:    "max-deferred without async rejected",
			args:    []string{"-max-deferred", "4"},
			shards:  1,
			wantErr: "MaxDeferredWriteBacks sizes the deferred write-back queue",
		},
		{
			name:   "max-deferred with async carried",
			args:   []string{"-async", "-max-deferred", "4"},
			shards: 1,
			wantSpec: func(t *testing.T, s pathoram.Spec) {
				if !s.AsyncEviction || s.MaxDeferredWriteBacks != 4 {
					t.Errorf("async knobs not carried: %+v", s)
				}
			},
		},
		{
			name:    "explicit plb-bytes under flat posmap rejected",
			args:    []string{"-plb-bytes", "4096"},
			shards:  1,
			wantErr: "PLBBytes/PLBConstantShape/Overlap accelerate the recursive position-map chain",
		},
		{
			name:    "plb-constant-shape without a PLB rejected",
			args:    []string{"-posmap", "recursive", "-plb-constant-shape"},
			shards:  1,
			wantErr: "PLBConstantShape pads PLB hits; set PLBBytes > 0",
		},
		{
			name:    "explicit overlap under mem backend rejected",
			args:    []string{"-posmap", "recursive", "-overlap", "4"},
			shards:  1,
			wantErr: "Overlap schedules modeled memory time",
		},
		{
			name: "full acceleration flags carried and Open accepts",
			args: []string{"-blocks", "256", "-blocksize", "16", "-posmap", "recursive",
				"-onchip-max", "128", "-backend", "dram",
				"-plb-bytes", "2048", "-plb-constant-shape", "-overlap", "4"},
			shards: 1,
			wantSpec: func(t *testing.T, s pathoram.Spec) {
				if s.PLBBytes != 2048 || !s.PLBConstantShape || s.Overlap != 4 {
					t.Errorf("acceleration knobs not carried: plb=%d cs=%v ov=%d",
						s.PLBBytes, s.PLBConstantShape, s.Overlap)
				}
			},
			wantOpenOK: true,
		},
		{
			// Like the PR 6 DRAM-knob regression: a mem/flat spec must not
			// carry the acceleration knobs even at explicit-free defaults.
			name:   "flat posmap leaves acceleration knobs zero",
			args:   []string{"-blocks", "256", "-blocksize", "16"},
			shards: 1,
			wantSpec: func(t *testing.T, s pathoram.Spec) {
				if s.PLBBytes != 0 || s.PLBConstantShape || s.Overlap != 0 {
					t.Errorf("flat spec carries acceleration knobs: plb=%d cs=%v ov=%d",
						s.PLBBytes, s.PLBConstantShape, s.Overlap)
				}
			},
			wantOpenOK: true,
		},
		{
			name:    "unknown encryption rejected",
			args:    []string{"-encrypt", "rot13"},
			shards:  1,
			wantErr: `unknown pathoram.Encryption "rot13"`,
		},
		{
			name:    "unknown partition rejected",
			args:    []string{"-partition", "hash"},
			shards:  1,
			wantErr: `unknown pathoram.Partition "hash"`,
		},
		{
			name:    "unknown posmap rejected",
			args:    []string{"-posmap", "cuckoo"},
			shards:  1,
			wantErr: `unknown pathoram.PosMapPolicy "cuckoo"`,
		},
		{
			name:    "unknown backend rejected",
			args:    []string{"-backend", "disk"},
			shards:  1,
			wantErr: `unknown pathoram.Backend "disk"`,
		},
		{
			name:    "unknown layout rejected",
			args:    []string{"-backend", "dram", "-layout", "spiral"},
			shards:  1,
			wantErr: `unknown pathoram.DRAMLayout "spiral"`,
		},
		{
			name:   "file storage carries its knobs and Open accepts",
			args:   []string{"-blocks", "256", "-blocksize", "16", "-backend", "file", "-dir", "@TMP", "-wal", "-wal-depth", "4"},
			shards: 2,
			wantSpec: func(t *testing.T, s pathoram.Spec) {
				if s.Backend != pathoram.BackendFile || s.Dir == "" || !s.WAL || s.WALDepth != 4 {
					t.Errorf("file knobs not carried: backend=%v dir=%q wal=%v depth=%d",
						s.Backend, s.Dir, s.WAL, s.WALDepth)
				}
			},
			wantOpenOK: true,
		},
		{
			// The inert-knob regression for the persistence axis: mem
			// storage must leave Dir/WAL/WALDepth zero so Open accepts.
			name:   "mem storage leaves persistence knobs zero",
			args:   []string{"-blocks", "256", "-blocksize", "16"},
			shards: 1,
			wantSpec: func(t *testing.T, s pathoram.Spec) {
				if s.Dir != "" || s.WAL || s.WALDepth != 0 {
					t.Errorf("mem spec carries persistence knobs: dir=%q wal=%v depth=%d",
						s.Dir, s.WAL, s.WALDepth)
				}
			},
			wantOpenOK: true,
		},
		{
			name:    "explicit wal without file storage rejected",
			args:    []string{"-wal"},
			shards:  1,
			wantErr: "Dir/WAL/WALDepth parameterize the persistent backend",
		},
		{
			name:    "explicit dir without file storage rejected",
			args:    []string{"-dir", "@TMP"},
			shards:  1,
			wantErr: "Dir/WAL/WALDepth parameterize the persistent backend",
		},
		{
			name:    "wal-depth without wal rejected",
			args:    []string{"-backend", "file", "-dir", "@TMP", "-wal-depth", "8"},
			shards:  1,
			wantErr: "WALDepth bounds the write-ahead log",
		},
		{
			name:    "file storage without dir rejected",
			args:    []string{"-backend", "file"},
			shards:  1,
			wantErr: "BackendFile needs Dir",
		},
		{
			name:    "file storage under dram backend rejected",
			args:    []string{"-backend", "dram", "-dir", "@TMP"},
			shards:  1,
			wantErr: "Dir/WAL/WALDepth parameterize the persistent backend",
		},
		{
			name:    "unknown storage rejected",
			args:    []string{"-storage", "tape"},
			shards:  1,
			wantErr: "flag provided but not defined: -storage",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				if a == "@TMP" {
					a = t.TempDir()
				}
				args[i] = a
			}
			spec, err := parse(append(args, "-shards", strconv.Itoa(tc.shards))...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantSpec != nil {
				tc.wantSpec(t, spec)
			}
			if tc.wantOpenOK {
				c, err := pathoram.Open(spec)
				if err != nil {
					t.Fatalf("Open rejected the built spec: %v", err)
				}
				if err := c.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}
		})
	}
}

// TestSpecFlagsBindEveryField reflects over pathoram.Spec: setting any one
// registered flag changes exactly one field, and every exported field but
// the two that have no text (Key, OnPathAccess) is bound by exactly one
// flag — a knob without a string form cannot be swept, and fails here.
func TestSpecFlagsBindEveryField(t *testing.T) {
	// One of these parses as a non-default value of every flag type.
	probes := []string{"7", "true", "recursive", "dram", "random", "strawman", "naive", "frfcfs"}
	boundBy := map[string][]string{}
	var names []string
	fs := flag.NewFlagSet("names", flag.ContinueOnError)
	BindSpec(fs, new(pathoram.Spec))
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	for _, name := range names {
		var changed []string
		for _, probe := range probes {
			spec, err := Point{args: []string{"-" + name + "=" + probe}}.Spec()
			if err != nil {
				continue
			}
			v := reflect.ValueOf(spec)
			for i := 0; i < v.NumField(); i++ {
				if !v.Field(i).IsZero() {
					changed = append(changed, v.Type().Field(i).Name)
				}
			}
			break
		}
		if len(changed) != 1 {
			t.Errorf("-%s changes fields %v, want exactly one", name, changed)
			continue
		}
		boundBy[changed[0]] = append(boundBy[changed[0]], name)
	}
	st := reflect.TypeOf(pathoram.Spec{})
	for i := 0; i < st.NumField(); i++ {
		field := st.Field(i).Name
		want := 1
		if field == "Key" || field == "OnPathAccess" {
			want = 0
		}
		if got := boundBy[field]; len(got) != want {
			t.Errorf("Spec.%s is bound by flags %v, want %d", field, got, want)
		}
	}
}

// TestSpecFlagsSeedRestartsStream: setting -seed to its own text installs
// a fresh generator replaying the same stream — how a sweep gives every
// construction its own copy of the seeded randomness.
func TestSpecFlagsSeedRestartsStream(t *testing.T) {
	var spec pathoram.Spec
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindSpec(fs, &spec)
	if err := fs.Parse([]string{"-seed", "42"}); err != nil {
		t.Fatal(err)
	}
	first := spec.Rand
	if want := rand.New(rand.NewSource(42)).Int63(); first.Int63() != want {
		t.Fatal("-seed 42 is not source 42")
	}
	seed := fs.Lookup("seed").Value
	if err := seed.Set(seed.String()); err != nil {
		t.Fatal(err)
	}
	if spec.Rand == first || spec.Rand.Int63() != rand.New(rand.NewSource(42)).Int63() {
		t.Error("re-setting -seed did not restart the stream on a fresh generator")
	}
	if err := seed.Set("0"); err != nil || spec.Rand != nil {
		t.Errorf("-seed 0 left a generator (err %v)", err)
	}
}
