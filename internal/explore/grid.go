package explore

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	pathoram "repro"
)

// Grid is the declarative sweep description, written in the text form of
// pathoram.Spec: the flags BindSpec registers. Every point starts from the
// flag string Base; each axis is a list of alternative flag strings (one
// flag, or several that belong together, or "" for "leave Base alone"), and
// the grid is the cartesian product of the axes, first axis outermost. A
// combination pathoram's rule table rejects — an inert knob, more shards
// than blocks — is not a point, so a grid simply names the axes it crosses
// and the table prunes the product. Grids load from JSON (see LoadGrid) or
// from the built-in presets.
type Grid struct {
	Base      string     `json:"base"`
	Axes      [][]string `json:"axes"`
	Workloads []string   `json:"workloads"`
}

// Point is one enumerated configuration. Its name is the flag string that
// sets it apart from Base: appended to Base on an oram-server command line
// (or as a one-point grid's Base), it builds the same construction.
type Point struct {
	Name string
	args []string
}

// Spec builds a fresh pathoram.Spec for the point by parsing its flags
// through BindSpec. Fresh matters: the Spec carries the seeded randomness
// source, which must not be shared between instances. Knob rules are not
// checked here. File-backend points that name no -dir live under the OS
// temp directory (the runner gives each its own subdirectory there).
func (p Point) Spec() (pathoram.Spec, error) {
	var spec pathoram.Spec
	fs := flag.NewFlagSet("point", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	BindSpec(fs, &spec)
	if err := fs.Parse(p.args); err != nil {
		return spec, err
	}
	if fs.NArg() > 0 {
		return spec, fmt.Errorf("%q is not a flag", fs.Arg(0))
	}
	if spec.Backend == pathoram.BackendFile && spec.Dir == "" {
		spec.Dir = os.TempDir()
	}
	return spec, nil
}

// Spec rebuilds the Spec behind a measured row from the row's config name
// (seedless: a renderer reads the shape, it does not construct).
func (g Grid) Spec(config string) (pathoram.Spec, error) {
	return Point{args: append(strings.Fields(g.Base), strings.Fields(config)...)}.Spec()
}

// Points enumerates the grid. Every returned point builds a Spec that
// Open accepts; an unknown flag, an unparsable value or an unknown
// workload is an error here, before any measurement runs, and so is a grid
// none of whose combinations is a point. Rejected combinations go to logf.
func (g Grid) Points(seed int64, logf func(format string, args ...any)) ([]Point, error) {
	if len(g.Workloads) == 0 {
		return nil, fmt.Errorf("grid names no workload")
	}
	for _, w := range g.Workloads {
		if WorkloadByName(w) == nil {
			return nil, fmt.Errorf("unknown workload %q", w)
		}
	}
	total := 1
	for i, axis := range g.Axes {
		if len(axis) == 0 {
			return nil, fmt.Errorf("grid axis %d lists no alternative", i)
		}
		total *= len(axis)
	}
	var points []Point
	var rejected error
	for i := 0; i < total; i++ {
		// Combination i, read as a mixed-radix number over the axes (last
		// axis fastest), picks one alternative per axis.
		args, differs := strings.Fields(g.Base), []string(nil)
		rem, stride := i, total
		for _, axis := range g.Axes {
			stride /= len(axis)
			alt := strings.Fields(axis[rem/stride])
			rem %= stride
			args, differs = append(args, alt...), append(differs, alt...)
		}
		// Distinct deterministic seed per point: neighboring configs stay
		// reproducible without sharing a randomness stream.
		p := Point{
			Name: strings.Join(differs, " "),
			args: append(args, "-seed", strconv.FormatInt(seed+int64(len(points))*7919, 10)),
		}
		if p.Name == "" {
			p.Name = g.Base
		}
		spec, err := p.Spec()
		if err != nil {
			return nil, fmt.Errorf("grid point %q: %w", p.Name, err)
		}
		if rejected = spec.Validate(); rejected != nil {
			logf("not a point: %s: %v", p.Name, rejected)
			continue
		}
		points = append(points, p)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("grid has no points: all %d combinations rejected, the last with: %v", total, rejected)
	}
	logf("%d of %d combinations are points", len(points), total)
	return points, nil
}

// Presets are the named grids cmd/oram-explore accepts in place of a
// JSON file. "smoke" is the CI grid: 8 points, two workloads, seconds of
// runtime. "full" is the EXPERIMENTS.md grid: every axis the paper
// explores, 64 points across three workloads. "shards" is the serving
// layer's throughput-vs-shard-count sweep, meant for -clients N. "fig7" ..
// "fig10" and the two "ablate-" grids are the paper's protocol figures at
// their scaled default sizes (figures.go).
var Presets = map[string]Grid{
	"fig7":              Fig7Grid(1 << 14),
	"fig8":              Fig8Grid(1 << 14),
	"fig9":              Fig9Grid(1<<10, 1<<12, 1<<14, 1<<16),
	"fig10":             Fig10Grid(1 << 14),
	"ablate-stash":      StashGrid(1 << 14),
	"ablate-superblock": SuperBlockGrid(1 << 14),

	"smoke": {
		Base: "-blocks 1024 -blocksize 32",
		Axes: [][]string{
			{"-shards 1", "-shards 4"},
			{"-posmap flat", "-posmap recursive -onchip-max 512"},
			{"-backend mem", "-backend dram"},
		},
		Workloads: []string{"uniform", "zipf"},
	},
	"full": {
		Base: "-blocks 4096 -blocksize 32",
		Axes: [][]string{
			{"-shards 1", "-shards 4"},
			{"-posmap flat", "-posmap recursive -onchip-max 2048"},
			{"-backend mem", "-backend dram"},
			{"-partition stripe", "-partition random"},
			{"-padded=false", "-padded"},
			{"-async=false", "-async"},
		},
		Workloads: []string{"uniform", "zipf", "hammer"},
	},
	// "plb-overlap" isolates the position-map acceleration axes: a recursive
	// dram-backed chain swept over PLB budget x overlap depth, on the two
	// workloads where the PLB's locality sensitivity shows (zipf hits,
	// uniform mostly misses).
	"plb-overlap": {
		Base: "-blocks 1024 -blocksize 32 -shards 1 -posmap recursive -onchip-max 512 -backend dram",
		Axes: [][]string{
			{"-plb-bytes 0", "-plb-bytes 4096"},
			{"-overlap 0", "-overlap 4"},
		},
		Workloads: []string{"uniform", "zipf"},
	},
	// "mem-sched" isolates the memory-controller scheduling axes: a 2-shard
	// dram-backed sweep over inorder vs the FR-FCFS open queue at two
	// depths, on both workload shapes. A queue depth means nothing to the
	// inorder controller, so the product is 3 configs x 2 workloads.
	"mem-sched": {
		Base: "-blocks 1024 -blocksize 32 -shards 2 -backend dram",
		Axes: [][]string{
			{"-mem-sched inorder", "-mem-sched frfcfs"},
			{"-mem-queue 0", "-mem-queue 16"},
		},
		Workloads: []string{"uniform", "zipf"},
	},
	// "persistence" isolates the persistence axes: mem vs file storage, WAL on
	// and off, sync vs deferred write-back — 6 configs, since only files
	// have a log. File-point latencies include real mmap/msync I/O, which
	// is where async should show a much larger win than it did against
	// modeled cycles.
	"persistence": {
		Base: "-blocks 1024 -blocksize 32 -shards 1",
		Axes: [][]string{
			{"-async=false", "-async"},
			{"-backend mem", "-backend file"},
			{"-wal=false", "-wal"},
		},
		Workloads: []string{"uniform"},
	},
	"shards": {
		Base:      "-blocks 16384 -blocksize 64",
		Axes:      [][]string{{"-shards 1", "-shards 2", "-shards 4", "-shards 8"}},
		Workloads: []string{"uniform"},
	},
}

// PresetNames lists the built-in grids.
func PresetNames() []string { return slices.Sorted(maps.Keys(Presets)) }

// LoadGrid resolves name either as a preset or as a path to a JSON grid
// description (unknown JSON fields are rejected to catch typoed keys).
func LoadGrid(name string) (Grid, error) {
	if g, ok := Presets[name]; ok {
		return g, nil
	}
	f, err := os.Open(name)
	if err != nil {
		if !strings.ContainsAny(name, "./\\") {
			return Grid{}, fmt.Errorf("unknown preset %q (have: %s) and no such file", name, strings.Join(PresetNames(), ", "))
		}
		return Grid{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("parsing grid %s: %w", name, err)
	}
	return g, nil
}
