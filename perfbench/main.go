// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed measuring time on the virtual substrate (or, for
// paper-sim, the discrete-event simulator), checks the outputs, prints a
// metrics table and ends with one JSON result line:
//
//	go run . --workload crowd --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, and span and layer files
// are written under --out. The command exits non-zero when a correctness
// check fails. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// maxRunWall bounds a run's wall time: no round starts that would be
// expected to end past it.
const maxRunWall = 150 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is what a run reports.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
	notes     []string // extra lines for the printed table
	trace     any      // the trace file's content (traced runs)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: crowd, ring, stream or paper-sim")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traced runs' span and layer files")
	golden := fs.Int("golden", 0, "print paper-sim golden entries for seeds 0..n-1 and exit")
	defaultClock := fs.Bool("default-clock", false, "run an overlay workload on the virtual clock's default event granularity instead of its coalescing window (slow; the quality reference)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if *golden > 0 {
		return printGolden(*golden, stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	var res *result
	var err error
	if w, ok := overlayWorkloads[*workload]; ok {
		if *defaultClock {
			c := *w
			c.coalesce = 0
			w = &c
		}
		res, err = runOverlay(*workload, w, *seed, *seconds, traced)
	} else if *workload == "paper-sim" {
		res, err = runPaperSim(*seed, *seconds, traced)
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	if traced {
		path := filepath.Join(*out, fmt.Sprintf("%s-seed%d.trace.json", *workload, *seed))
		if err := writeTrace(path, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res.notes = append(res.notes, "trace written to "+path)
	}
	printTable(stdout, *workload, *seed, traced, res)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{
		Correct:   len(res.failures) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: finite(res.metrics[d.name]), Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		for _, f := range res.failures {
			fmt.Fprintln(stderr, "perfbench: check failed:", f)
		}
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finite maps the values JSON cannot carry to 0 (a latency percentile
// that landed on a never-admitted requester is printed as "inf" in the
// table; the unserved share carries that failure in the result line).
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// loopRounds calls do for round 0, 1, ... until the measuring time is
// used and at least minRounds rounds ran. No round starts that would be
// expected to end past maxRunWall.
func loopRounds(seconds, minRounds int, do func(i int) error) error {
	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	var last time.Duration
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i >= minRounds && elapsed >= budget {
			return nil
		}
		if i > 0 && elapsed+last > maxRunWall {
			return nil
		}
		r0 := time.Now()
		if err := do(i); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		last = time.Since(r0)
		// Each round starts from a collected heap, so garbage from the
		// previous one neither inflates its peak nor taxes its GC.
		runtime.GC()
	}
}

// minRounds returns the least number of rounds a run makes: three for
// medians, four in a traced run (traced and untraced rounds alternate).
func minRounds(traced bool) int {
	if traced {
		return 4
	}
	return 3
}

// printTable writes the human-readable report.
func printTable(w io.Writer, workload string, seed int64, traced bool, res *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v rounds=%.0f\n", workload, seed, traced, res.metrics["bench.rounds"])
	fmt.Fprintln(w, "end-to-end (untraced rounds):")
	for _, d := range viewerMetrics {
		v, ok := res.metrics[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-32s %14s\n", d.name, "n/a")
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	if traced {
		fmt.Fprintln(w, "per-layer (traced rounds):")
		names := make([]string, 0, len(perLayer))
		units := make(map[string]string, len(perLayer))
		for _, d := range perLayer {
			names = append(names, d.name)
			units[d.name] = d.unit
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, res.metrics[n], units[n])
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	for _, f := range res.failures {
		fmt.Fprintln(w, "CHECK FAILED:", f)
	}
}

// writeTrace writes a traced run's file.
func writeTrace(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(res.trace); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace: %w", err)
	}
	return nil
}

// printGolden runs the paper-sim pair for seeds 0..n-1 and prints
// simGolden entries.
func printGolden(n int, stdout, stderr io.Writer) int {
	for s := int64(0); s < int64(n); s++ {
		r, err := runSim(s)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		fmt.Fprintln(stdout, goldenLine(s, r.res))
	}
	return 0
}
