package pathoram

import (
	"bytes"
	"encoding"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Tests for the construction seam: the one rule table, the one resolve
// pass, and the shared builder's cleanup path.

// ruleTrips holds, per row of rules and in the same order, a Spec that
// trips exactly that row first.
var ruleTrips = []Spec{
	{BlockSize: 8},
	{Blocks: 64, Shards: -1},
	{Blocks: 4, Shards: 5},
	{Blocks: 64, Partition: Partition(9)},
	{Blocks: 64, PosMap: PosMapPolicy(9)},
	{Blocks: 64, BlockSize: 8, Encryption: Encryption(9)},
	{Blocks: 64, Backend: Backend(9)},
	{Blocks: 64, Backend: BackendDRAM, DRAMLayout: DRAMLayout(9)},
	{Blocks: 64, Backend: BackendDRAM, DRAMSched: MemSched(9)},
	{Blocks: 64, Utilization: 1.5},
	{Blocks: 64, LeafLevel: -1},
	{Blocks: 64, BlockSize: 8, Encryption: EncryptNone, Integrity: true},
	{Blocks: 64, BlockSize: 8, Key: make([]byte, 32)},
	{Blocks: 2, Z: 4, BlockSize: 1<<18 - 11},
	{Blocks: 64, MaxDeferredWriteBacks: 4},
	{Blocks: 64, DRAMChannels: 4},
	{Blocks: 64, DRAMSched: MemSchedFRFCFS},
	{Blocks: 64, Backend: BackendDRAM, DRAMQueueDepth: 4},
	{Blocks: 64, Backend: BackendDRAM, DRAMChannels: -1},
	{Blocks: 64, Backend: BackendDRAM, DRAMSched: MemSchedFRFCFS, DRAMStarveCap: -1},
	{Blocks: 64, BlockSize: 8, WAL: true},
	{Blocks: 64, BlockSize: 8, Backend: BackendFile},
	{Blocks: 64, Backend: BackendFile, Dir: "unused"},
	{Blocks: 64, BlockSize: 8, Backend: BackendFile, Dir: "unused", WALDepth: 4},
	{Blocks: 64, BlockSize: 8, Backend: BackendFile, Dir: "unused", WAL: true, WALDepth: -1},
	{Blocks: 64, PosZ: 3},
	{Blocks: 64, PLBBytes: 1024},
	{Blocks: 64, PosMap: PosMapRecursive, PLBConstantShape: true},
	{Blocks: 64, PosMap: PosMapRecursive, Backend: BackendDRAM, Overlap: -1},
	{Blocks: 64, PosMap: PosMapRecursive, Overlap: 2},
	{Blocks: 64, PosMap: PosMapRecursive, Backend: BackendDRAM, DRAMSerialize: true, Overlap: 2},
}

// TestSpecRules trips every row of the rule table once and pushes the
// tripping Spec through every constructor that accepts its axes: each must
// fail with that row's message — one table, one vocabulary.
func TestSpecRules(t *testing.T) {
	if len(ruleTrips) != len(rules) {
		t.Fatalf("%d tripping specs for %d rules; every row needs exactly one", len(ruleTrips), len(rules))
	}
	for i, spec := range ruleTrips {
		want := "pathoram: " + rules[i].msg
		check := func(ctor string, err error) {
			t.Helper()
			if err == nil || err.Error() != want {
				t.Errorf("rule %d via %s: got %v, want %q", i, ctor, err, want)
			}
		}
		_, err := resolve(spec)
		check("resolve", err)
		_, err = Open(spec)
		check("Open", err)
		_, err = NewSharded(spec)
		check("NewSharded", err)
		// The bare constructors only accept the axes of one known engine.
		if spec.Shards > 1 || spec.Partition != PartitionStripe || spec.PosMap > PosMapRecursive {
			continue
		}
		if spec.PosMap == PosMapRecursive {
			_, err = NewHierarchy(spec)
			check("NewHierarchy", err)
		} else {
			_, err = New(spec)
			check("New", err)
		}
	}
}

// TestSpecBareConstructorsRejectServingAxes: the single-engine
// constructors reject what they would otherwise ignore.
func TestSpecBareConstructorsRejectServingAxes(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"shards":    func(s *Spec) { s.Shards = 2 },
		"partition": func(s *Spec) { s.Partition = PartitionRange },
		"padded":    func(s *Spec) { s.Padded = true },
	} {
		spec := Spec{Blocks: 64, BlockSize: 8}
		mutate(&spec)
		if _, err := New(spec); err == nil {
			t.Errorf("%s: New accepted a serving-layer knob", name)
		}
		if _, err := NewHierarchy(spec); err == nil {
			t.Errorf("%s: NewHierarchy accepted a serving-layer knob", name)
		}
		if c, err := Open(spec); err != nil {
			t.Errorf("%s: Open rejected it: %v", name, err)
		} else {
			c.Close()
		}
	}
	// One engine: New honours PosMap, and NewHierarchy is New with
	// PosMapRecursive implied — the same seeded spec walks the same
	// (level, leaf) trace through either, on a real chain.
	walk := func(build func(Spec) (*ORAM, error), spec Spec) (trace []uint64) {
		spec.Rand = rand.New(rand.NewSource(5))
		spec.OnPathAccess = func(_, level int, leaf uint64) { trace = append(trace, uint64(level), leaf) }
		o, err := build(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		if n := o.NumORAMs(); n < 3 {
			t.Fatalf("chain of %d ORAMs, want at least 3", n)
		}
		for a := uint64(0); a < 200; a++ {
			if err := o.Write(a*7%512, make([]byte, 8)); err != nil {
				t.Fatal(err)
			}
		}
		return trace
	}
	spec := Spec{Blocks: 512, BlockSize: 8, PosBlockSize: 16, OnChipPosMapMax: 64}
	viaHierarchy := walk(NewHierarchy, spec)
	spec.PosMap = PosMapRecursive
	if viaNew := walk(New, spec); !reflect.DeepEqual(viaNew, viaHierarchy) {
		t.Error("New(PosMapRecursive) and NewHierarchy walked different (level, leaf) traces")
	}
}

// TestSpecDataTreeSizingRules pins the two rules that turn (Blocks, Z,
// Utilization) into a data-tree depth, which PosMap still selects between
// (DESIGN.md, "One engine"): a flat engine takes the shallowest tree at or
// under the requested utilization (plan.leafLevel), a recursive one the
// level nearest in log space, floored at capacity (hierarchy.planLevels) —
// so the same triple can land a recursive data tree one level shallower,
// above the utilization asked for. Unifying them moves declared
// workloads' trees and is its own change; until then neither may drift.
func TestSpecDataTreeSizingRules(t *testing.T) {
	for _, tc := range []struct {
		blocks          uint64
		z               int
		utilization     float64
		flat, recursive int
	}{
		{4096, 3, 0.5, 11, 10},
		{1 << 14, 3, 0.5, 13, 12},
		{1 << 15, 3, 0.5, 14, 13}, // flat-enc's shards: L=14 at 33%
		{1 << 16, 3, 0.5, 15, 14}, // dram-rec-*'s data ORAM: L=14 at 67%
		{4096, 1, 0.5, 13, 12},    // a Z=1 tree at 50%: Figure 8's feasibility edge
		{4096, 2, 0.75, 11, 11},
	} {
		for _, posMap := range []PosMapPolicy{PosMapOnChip, PosMapRecursive} {
			o, err := New(Spec{Blocks: tc.blocks, Z: tc.z, Utilization: tc.utilization,
				PosMap: posMap, Encryption: EncryptNone})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.flat
			if posMap == PosMapRecursive {
				want = tc.recursive
			}
			if got := o.LeafLevel(); got != want {
				t.Errorf("Blocks %d, Z %d, Utilization %v, PosMap %v: data tree L=%d, want %d",
					tc.blocks, tc.z, tc.utilization, posMap, got, want)
			}
		}
	}
}

// enabledBy says, for every Spec field, where it means something: nil for
// a field that is live on every Spec, otherwise the mutation that selects
// the axis values under which it is (the minimal Spec below selects none:
// flat, synchronous, in memory). A new field must be entered here — and so
// be given either a use everywhere or a rule row.
var enabledBy = func() map[string]func(*Spec) {
	recursive := func(s *Spec) { s.PosMap = PosMapRecursive }
	async := func(s *Spec) { s.AsyncEviction = true }
	dram := func(s *Spec) { s.Backend = BackendDRAM }
	frfcfs := func(s *Spec) { s.Backend, s.DRAMSched = BackendDRAM, MemSchedFRFCFS }
	file := func(s *Spec) { s.Backend, s.Dir = BackendFile, "somewhere" }
	return map[string]func(*Spec){
		"Blocks": nil, "BlockSize": nil, "Shards": nil, "Partition": nil, "Padded": nil,
		"PosMap": nil, "Z": nil, "Utilization": nil, "LeafLevel": nil, "StashCapacity": nil,
		"ConstantTimeStash": nil, "SuperBlockSize": nil, "Encryption": nil, "Integrity": nil, "Key": nil,
		"AsyncEviction": nil, "Backend": nil, "Rand": nil, "OnPathAccess": nil,

		"MaxDeferredWriteBacks": async,
		"PosBlockSize":          recursive, "OnChipPosMapMax": recursive, "PosZ": recursive, "PLBBytes": recursive,
		"PLBConstantShape": func(s *Spec) { s.PosMap, s.PLBBytes = PosMapRecursive, 1024 },
		"Overlap":          func(s *Spec) { s.PosMap, s.Backend = PosMapRecursive, BackendDRAM },
		"Dir":              func(s *Spec) { s.Backend = BackendFile },
		"WAL":              file,
		"WALDepth":         func(s *Spec) { file(s); s.WAL = true },
		"DRAMChannels":     dram, "DRAMLayout": dram, "DRAMSerialize": dram, "DRAMSched": dram,
		"DRAMQueueDepth": frfcfs, "DRAMStarveCap": frfcfs,
	}
}()

// TestSpecNoInertField reflects over Spec: starting from a minimal valid
// Spec, setting any one exported field to a different value is accepted
// exactly when enabledBy says the field is live there; a field that only
// parameterizes some other axis value must be rejected until that value is
// selected, and accepted once it is. A rule row missing for such a knob —
// it would be silently ignored — fails here.
func TestSpecNoInertField(t *testing.T) {
	st := reflect.TypeOf(Spec{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if !f.IsExported() {
			t.Errorf("Spec.%s is unexported; Spec is the public surface, plan holds derived state", f.Name)
			continue
		}
		enable, listed := enabledBy[f.Name]
		if !listed {
			t.Errorf("Spec.%s is not in enabledBy; say where the field is live", f.Name)
			continue
		}
		spec := Spec{Blocks: 64, BlockSize: 16, Key: []byte("0123456789abcdef")}
		v := reflect.ValueOf(&spec).Elem().Field(i)
		switch f.Name {
		case "Key":
			v.SetBytes([]byte("fedcba9876543210"))
		case "Rand":
			v.Set(reflect.ValueOf(rand.New(rand.NewSource(1))))
		case "OnPathAccess":
			v.Set(reflect.ValueOf(func(int, int, uint64) {}))
		default:
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Int:
				if f.Type.PkgPath() != "" {
					v.SetInt(1) // the enum's first non-default value
				} else {
					v.SetInt(2) // 1 is several fields' default
				}
			case reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float64:
				v.SetFloat(0.75)
			case reflect.String:
				v.SetString("somewhere")
			default:
				t.Fatalf("Spec.%s has kind %v; teach this test to set it", f.Name, v.Kind())
			}
		}
		err := spec.Validate()
		if enable == nil {
			if err != nil {
				t.Errorf("Spec.%s = %v rejected on the minimal Spec: %v", f.Name, v.Interface(), err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Spec.%s = %v is accepted where it changes nothing; it needs a rule row", f.Name, v.Interface())
		}
		enable(&spec)
		if err := spec.Validate(); err != nil {
			t.Errorf("Spec.%s = %v rejected where enabledBy says it is live: %v", f.Name, v.Interface(), err)
		}
	}
}

// checkEnumText: every value of one Spec enum round-trips through its text
// form, the name table covers exactly the constants up to last, and a name
// outside the table — including what an out-of-range value prints as — is
// rejected.
func checkEnumText[E ~int, P interface {
	*E
	encoding.TextUnmarshaler
}](t *testing.T, names []string, last E) {
	t.Helper()
	if int(last) != len(names)-1 {
		t.Errorf("%T: %d names for constants 0..%d", last, len(names), int(last))
	}
	for i := range names {
		text, err := any(E(i)).(encoding.TextMarshaler).MarshalText()
		if err != nil || string(text) != names[i] {
			t.Errorf("%T(%d) marshals as %q, %v; want %q", last, i, text, err, names[i])
		}
		var back E
		if err := P(&back).UnmarshalText(text); err != nil || back != E(i) {
			t.Errorf("%T: %q unmarshals as %d, %v; want %d", last, text, int(back), err, i)
		}
	}
	beyond, _ := any(last + 1).(encoding.TextMarshaler).MarshalText()
	for _, bad := range []string{"", "no-such-name", strings.ToUpper(names[0]), string(beyond)} {
		var v E
		if err := P(&v).UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("%T: unknown name %q accepted as %d", last, bad, int(v))
		}
	}
}

// TestSpecEnumText pins the text form of the six Spec enums.
func TestSpecEnumText(t *testing.T) {
	checkEnumText(t, encryptionNames, EncryptNone)
	checkEnumText(t, backendNames, BackendFile)
	checkEnumText(t, partitionNames, PartitionRandom)
	checkEnumText(t, posMapNames, PosMapRecursive)
	checkEnumText(t, layoutNames, LayoutNaive)
	checkEnumText(t, memSchedNames, MemSchedFRFCFS)
}

// TestSpecValidationGapsClosed pins the three checks that only some
// constructors made before the single rule table: each was accepted (or
// misreported) on at least one path.
func TestSpecValidationGapsClosed(t *testing.T) {
	// Utilization outside (0,1] was rejected on flat trees and silently
	// replaced by 0.5 on recursive ones.
	if c, err := Open(Spec{Blocks: 64, BlockSize: 8, PosMap: PosMapRecursive, Utilization: 1.5}); err == nil {
		c.Close()
		t.Error("recursive spec with Utilization 1.5 accepted")
	}
	// A 32-byte key was rejected by the serving layer and accepted by the
	// bare constructors (one of which derived AES-128 subkeys from it).
	key32 := make([]byte, 32)
	if _, err := New(Config{Blocks: 64, BlockSize: 8, Key: key32}); err == nil {
		t.Error("New accepted a 32-byte key")
	}
	if _, err := NewHierarchy(Spec{Blocks: 64, BlockSize: 8, Key: key32}); err == nil {
		t.Error("NewHierarchy accepted a 32-byte key")
	}
	// DRAMChannels 0 is the accepted default, so the bound is 0, not 1.
	_, err := New(Config{Blocks: 64, BlockSize: 8, Backend: BackendDRAM, DRAMChannels: -1})
	if err == nil || strings.Contains(err.Error(), ">= 1") {
		t.Errorf("DRAMChannels -1: got %v, want a rejection naming the real bound (>= 0)", err)
	}
}

// TestSpecCounterPadBound: the largest bucket one counter can pad — Z=4
// blocks of 256 KiB minus the slot header, exactly 65536 AES chunks —
// opens and round-trips (ruleTrips holds the refused neighbour, one byte
// per block more); the same geometry without the counter scheme has no
// such bound.
func TestSpecCounterPadBound(t *testing.T) {
	for _, spec := range []Spec{
		{Blocks: 2, Z: 4, BlockSize: 1<<18 - 12},
		{Blocks: 2, Z: 4, BlockSize: 1<<18 - 11, Encryption: EncryptNone},
	} {
		c, err := Open(spec)
		if err != nil {
			t.Fatalf("BlockSize %d, encryption %v refused: %v", spec.BlockSize, spec.Encryption, err)
		}
		want := bytes.Repeat([]byte{0xc3}, spec.BlockSize)
		want[len(want)-1] = 0x3c // lives in the bucket's last chunks
		if err := c.Write(1, want); err != nil {
			t.Fatal(err)
		}
		if got, err := c.Read(1); err != nil || !bytes.Equal(got, want) {
			t.Errorf("BlockSize %d: round trip failed (err %v)", spec.BlockSize, err)
		}
		c.Close()
	}
}

// openFDs counts this process's open descriptors (Linux only; other
// platforms skip the calling test).
func openFDs(t *testing.T) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestOpenFailureClosesTreeFiles: when a later shard fails to build, the
// tree files and WALs the earlier shards already opened are closed again.
func TestOpenFailureClosesTreeFiles(t *testing.T) {
	dir := t.TempDir()
	// Shard 2's tree file cannot be opened: its name is taken by a directory.
	if err := os.Mkdir(filepath.Join(dir, "shard2.tree"), 0o755); err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	c, err := Open(Spec{Blocks: 96, BlockSize: 16, Shards: 3, Backend: BackendFile, Dir: dir, WAL: true})
	if err == nil {
		c.Close()
		t.Fatal("Open succeeded with shard 2's tree file blocked")
	}
	if after := openFDs(t); after != before {
		t.Errorf("%d descriptors open after the failed Open, %d before: shards 0 and 1 leaked their files", after, before)
	}
}
