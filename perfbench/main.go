// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, checks the simulated outputs, and prints every metric
// by name and unit; its last output line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Workloads (see README.md and BENCHMARK.json for why each exists):
//
//	colo      colocated simulation cells through internal/runner
//	isolated  the same grid without colocation, plus rival schemes and a 4-process mix
//	service   in-process asapd over loopback HTTP with a persistent store
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer ledger instead, measured by timing the benchmark's own
// calls into each layer's public functions. Build and run it from the root of
// a checkout with perfbench/run.sh.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/rng"
)

// heldOutSeed is the seed kept back from tuning: a later performance claim
// must also hold when the benchmark runs with --seed heldOutSeed.
const heldOutSeed = 20191012

// config is one invocation's settings.
type config struct {
	root     string // checkout root (trace files, scratch directory)
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	workers  int // simulation workers and closed-loop clients
}

// simSeed derives the simulator seed of a run from the benchmark seed.
func (c config) simSeed() uint64 {
	if s := rng.Mix64(c.seed); s != 0 {
		return s
	}
	return 1
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	metrics           []metric
	digest            string
	paramsDigest      string
	problems          []string // failed output checks
	notes             []string // sample counts and other context, printed before the result
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{Name: name, Unit: unit, Value: v})
}

// check records a failed output check; the run then reports correct=false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"colo": func(ctx context.Context, c config) (*outcome, error) { return runGrid(ctx, c, coloCells(c.simSeed())) },
	"isolated": func(ctx context.Context, c config) (*outcome, error) {
		return runGrid(ctx, c, isolatedCells(c.simSeed()))
	},
	"service": runService,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code: 0 when
// every output check passed, 1 when a check failed (the result line still
// prints, with correct=false), 2 when the run could not complete.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "checkout root holding internal/exp/testdata")
	name := fs.String("workload", "", "workload to run: colo, isolated or service")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload colo|isolated|service, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	cfg := config{
		root:     *root,
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		workers:  min(2, runtime.NumCPU()),
	}
	out, err := drive(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	prov, err := json.Marshal(provenance(cfg, out))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: provenance: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	fmt.Fprintf(stdout, "sim_digest %s %s\n", cfg.workload, out.digest)
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := encodeResult(len(out.problems) == 0, out.attempted, out.failed, out.metrics)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(out.problems) > 0 {
		return 1
	}
	return 0
}

// provenance identifies what produced a result: source revision, toolchain,
// parallelism, seeds and the simulated parameter set.
func provenance(c config, o *outcome) map[string]any {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      c.workload,
		"traced":        c.traced,
		"vcs_revision":  rev,
		"vcs_modified":  dirty,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"workers":       c.workers,
		"seed":          c.seed,
		"sim_seed":      c.simSeed(),
		"held_out_seed": heldOutSeed,
		"params_digest": o.paramsDigest,
		"seconds":       c.seconds.Seconds(),
	}
}
