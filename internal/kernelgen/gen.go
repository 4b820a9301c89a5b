// Package kernelgen generates a synthetic Linux-kernel-shaped C codebase
// — the stand-in for the Oracle Unbreakable Enterprise Kernel the paper
// evaluates on, which we cannot ship. The generated tree is genuine C
// source: it flows through the full extractor pipeline (preprocessor,
// parser, linker model), and is shaped to reproduce the paper's graph
// characteristics:
//
//   - kernel-like directory layout (kernel/, mm/, fs/, drivers/<bus>/,
//     net/<proto>/, lib/, include/linux/);
//   - a heavy-tailed call/use structure: hot utility functions (printk,
//     kmalloc), hot primitives (int) and the NULL macro acquire node
//     degrees orders of magnitude above the median (Figure 7's hubs);
//   - CONFIG_* conditional compilation, macros with expansion inside
//     functions, struct/enum/typedef-rich headers;
//   - per-directory modules linked from the directory's objects, plus the
//     paper's named seed entities so its queries run verbatim: module
//     wakeup.elf with fields named id (Figure 3), functions
//     sr_media_change / get_sectorsize and struct packet_command with
//     field cmd at the exact source line Figure 5 hardcodes, and
//     pci_read_bases with a deep, diamond-rich callee tree (Figure 6).
//
// Generation is fully deterministic for a given Config.
package kernelgen

import (
	"fmt"
	"sort"
	"strings"

	"frappe/internal/cpp"
	"frappe/internal/extract"
)

// Config sizes the synthetic kernel.
type Config struct {
	Seed              int64
	Subsystems        int // synthetic subsystems in addition to the fixed seed ones
	FilesPerSubsystem int
	FuncsPerFile      int // functions per .c file (≥2)
}

// Tiny returns a test-sized configuration (a few hundred nodes).
func Tiny() Config {
	return Config{Seed: 1, Subsystems: 3, FilesPerSubsystem: 2, FuncsPerFile: 3}
}

// Default returns the benchmark-scale configuration. The resulting graph
// preserves the paper's ~1:8 node:edge ratio and degree shape at a size
// the full pipeline processes in seconds; Scaled raises it toward the
// paper's absolute counts.
func Default() Config {
	return Config{Seed: 2015, Subsystems: 24, FilesPerSubsystem: 10, FuncsPerFile: 12}
}

// Scaled multiplies the default size by factor (≥1).
func Scaled(factor int) Config {
	c := Default()
	if factor > 1 {
		c.Subsystems *= factor
		c.FilesPerSubsystem += factor
	}
	return c
}

// Workload is a generated codebase plus its build description.
type Workload struct {
	FS    cpp.MapFS
	Build extract.Build
}

// ExtractOptions returns the extractor options for this workload.
func (w *Workload) ExtractOptions() extract.Options {
	return extract.Options{
		FS:           w.FS,
		IncludePaths: []string{"include"},
	}
}

// Extract runs the full extraction pipeline over the workload.
func (w *Workload) Extract() (*extract.Result, error) {
	return extract.Run(w.Build, w.ExtractOptions())
}

// LineCount reports the total number of source lines in the workload,
// the "MLoC" figure the paper sizes its corpus by.
func (w *Workload) LineCount() int {
	n := 0
	for _, src := range w.FS {
		n += strings.Count(src, "\n")
	}
	return n
}

// rng is a deterministic splitmix64 generator (stable across Go
// versions, unlike math/rand's stream).
type rng struct{ state uint64 }

func newRng(seed int64) *rng { return &rng{state: uint64(seed)*2654435769 + 0x9E3779B97F4A7C15} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// zipf returns an index in [0, n) with probability ∝ 1/(i+1): the
// preferential skew that produces Figure 7's heavy tail.
func (r *rng) zipf(n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF over harmonic weights, approximated by retrying a
	// geometric-ish draw; cheap and deterministic.
	for {
		i := r.intn(n)
		// accept i with probability 1/(i+1)
		if r.intn(i+1) == 0 {
			return i
		}
	}
}

// chance returns true with probability pct/100.
func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

// subsystem names, cycled (with numeric suffixes) when Config asks for
// more than the base list.
var subsysNames = []string{
	"sched", "irq", "timer", "workqueue", "signal", "futex",
	"vfs", "ext4", "proc", "sysfs", "dcache", "inode",
	"tcp", "udp", "route", "netdev", "sock", "arp",
	"usb", "tty", "input", "rtc", "dma", "gpio",
	"crypto", "audit", "keys", "selinux", "mmzone", "swap",
}

// subsysDirs maps a subsystem index to its top-level directory, shaped
// like the kernel tree.
var subsysDirs = []string{
	"kernel", "kernel", "kernel", "kernel", "kernel", "kernel",
	"fs", "fs/ext4", "fs/proc", "fs", "fs", "fs",
	"net/ipv4", "net/ipv4", "net/core", "net/core", "net/core", "net/ipv4",
	"drivers/usb", "drivers/tty", "drivers/input", "drivers/rtc", "drivers/dma", "drivers/gpio",
	"crypto", "security", "security/keys", "security/selinux", "mm", "mm",
}

type subsystem struct {
	name   string
	dir    string
	header string   // include/linux/<name>.h
	pubFns []string // public function names, in declaration order
	module string   // module this subsystem's objects link into
}

// Generate builds the synthetic kernel.
func Generate(cfg Config) *Workload {
	if cfg.FuncsPerFile < 2 {
		cfg.FuncsPerFile = 2
	}
	if cfg.FilesPerSubsystem < 1 {
		cfg.FilesPerSubsystem = 1
	}
	g := &generator{
		cfg: cfg,
		r:   newRng(cfg.Seed),
		fs:  cpp.MapFS{},
	}
	g.coreHeaders()
	g.makeSubsystems()
	for i := range g.subs {
		g.subsystemHeader(i)
	}
	for i := range g.subs {
		g.subsystemSources(i)
	}
	g.libSources()
	g.seedFiles()
	g.assembleBuild()
	return &Workload{FS: g.fs, Build: g.build}
}

type generator struct {
	cfg   Config
	r     *rng
	fs    cpp.MapFS
	subs  []subsystem
	build extract.Build
	// units per module, in insertion order
	moduleObjs map[string][]string
	moduleSeq  []string
}

func (g *generator) addFile(path, content string) {
	g.fs[path] = content
}

// addUnit registers a compile unit and assigns its object to a module.
func (g *generator) addUnit(src, module string) {
	obj := strings.TrimSuffix(src, ".c") + ".o"
	g.build.Units = append(g.build.Units, extract.CompileUnit{Source: src, Object: obj})
	if g.moduleObjs == nil {
		g.moduleObjs = map[string][]string{}
	}
	if _, ok := g.moduleObjs[module]; !ok {
		g.moduleSeq = append(g.moduleSeq, module)
	}
	g.moduleObjs[module] = append(g.moduleObjs[module], obj)
}

func (g *generator) assembleBuild() {
	for _, m := range g.moduleSeq {
		mod := extract.Module{Name: m, Objects: g.moduleObjs[m]}
		if m == "vmlinux" {
			mod.Libs = []string{"lib/lib.a"}
		}
		g.build.Modules = append(g.build.Modules, mod)
	}
	sort.SliceStable(g.build.Units, func(i, j int) bool {
		return g.build.Units[i].Source < g.build.Units[j].Source
	})
}

func (g *generator) makeSubsystems() {
	for i := 0; i < g.cfg.Subsystems; i++ {
		base := subsysNames[i%len(subsysNames)]
		dir := subsysDirs[i%len(subsysDirs)]
		name := base
		if i >= len(subsysNames) {
			name = fmt.Sprintf("%s%d", base, i/len(subsysNames)+1)
			dir = fmt.Sprintf("%s/%s", dir, name)
		}
		module := "vmlinux"
		if strings.HasPrefix(dir, "drivers/") {
			module = fmt.Sprintf("%s/%s.elf", dir, name)
		}
		g.subs = append(g.subs, subsystem{
			name:   name,
			dir:    dir,
			header: "include/linux/" + name + ".h",
			module: module,
		})
	}
}
