// Command perfbench is the repository's benchmark: one process that
// indexes a synthetic kernel, serves it through internal/server over
// loopback with frappe serve's default configuration, drives one named
// workload against it, checks the answers, and prints its metrics as
// one JSON line. See README.md for the workloads and metrics.
//
//	perfbench -work DIR --workload agent-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spec is one workload's fixed shape.
type spec struct {
	scale  int  // kernelgen scale factor
	disk   bool // serve the persisted store through the pager instead of the in-memory graph
	setups int  // set-ups per run; setup_s is their median
	// epilogue is how many edits follow the read phase (edit-live makes
	// its edits during the read phase instead).
	epilogue int
}

var specs = map[string]spec{
	"agent-hot":    {scale: 1, setups: 3, epilogue: 7},
	"console-cold": {scale: 4, disk: true, setups: 2, epilogue: 1},
	"edit-live":    {scale: 1, setups: 3},
}

const (
	// readRate is edit-live's reader, in requests per second: several
	// passes over the pool per edit, and enough reads that the p90s, set
	// by how long each update's CPU burst holds the reader up, rest on
	// over a hundred samples beyond them. It is an assumption, not a
	// measured rate (README.md, "Traffic assumptions").
	readRate = 200.0
	// digestEvery is console-cold's digest sample: about one response in
	// digestEvery is checked against Snapshot.Query after the run.
	digestEvery = 20
)

func main() { os.Exit(run()) }

func run() int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "agent-hot, console-cold or edit-live")
	seed := fl.Int64("seed", 1, "request and edit seed")
	seconds := fl.Int("seconds", 10, "length of the measured phase")
	traced := fl.Int("trace", 0, "1: record spans and report the per-layer metrics instead")
	work := fl.String("work", ".bench_build/perfbench", "directory for temporary stores and span files")
	if err := fl.Parse(os.Args[1:]); err != nil {
		return 2
	}
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload agent-hot|console-cold|edit-live, --seconds >= 1, --trace 0|1\n")
		return 2
	}

	// Nothing is written to stdout until the stores are gone, so a closed
	// stdout pipe needs no handler: Go's default SIGPIPE exit comes after
	// the clean-up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	baseline := runtime.NumGoroutine()

	runs := filepath.Join(*work, "run")
	sweepStale(runs)
	dir := filepath.Join(runs, strconv.Itoa(os.Getpid()))
	b := &bench{name: *workload, spec: sp, seed: *seed, dur: time.Duration(*seconds) * time.Second, dir: dir}
	if *traced == 1 {
		b.rec = newRecorder()
	}
	out, err := b.run(ctx)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err == nil {
		err = settle(baseline)
	}
	if err == nil && b.rec != nil {
		path := filepath.Join(*work, "spans-"+*workload+".jsonl")
		if err = writeSpans(path, b.rec.closed()); err == nil {
			out.Diag["spans"] = path
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if out == nil || ctx.Err() != nil {
			return 1
		}
		out.Correct = false
	}
	if err := out.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// sweepStale removes run directories left by runs that were killed
// before they could clean up (their process no longer exists).
func sweepStale(runs string) {
	ents, _ := os.ReadDir(runs)
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		if syscall.Kill(pid, 0) == syscall.ESRCH {
			os.RemoveAll(filepath.Join(runs, e.Name()))
		}
	}
}

// settle waits for every goroutine the run started to exit and fails
// when some are still running.
func settle(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			return fmt.Errorf("%d goroutines still running, %d at start:\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the run's report: a diagnostics line, then the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Diag      map[string]any    `json:"-"`
}

func (o *output) print(f io.Writer) error {
	w := bufio.NewWriter(f)
	diag, err := json.Marshal(map[string]any{"diagnostics": o.Diag})
	if err != nil {
		return err
	}
	res, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n%s\n", diag, res)
	return w.Flush()
}

// procStat reads the aggregate CPU line of /proc/stat: total and steal
// jiffies. Zeros when it is unreadable (not Linux).
func procStat() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		n, _ := strconv.ParseInt(s, 10, 64)
		if i < 8 { // user..steal; guest time is already counted in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// medium names the file system type dir lives on.
func medium(dir string) string {
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		return "unknown"
	}
	switch fs.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-0x%x", fs.Type)
}

// peakRSSMB reads the process's peak resident set size from
// /proc/self/status, 0 when unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
