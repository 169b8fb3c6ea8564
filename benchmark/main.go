// Command benchmark is this repository's one benchmark: five named
// workloads over the ORAM service, eleven end-to-end metrics measured
// with tracing off, and a traced run with per-layer probes. README.md in
// this directory has the tables; BENCHMARK.json at the repository root has
// the contract a driver runs it under.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same op streams")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics with tracing off, 1 = traced run and probes")
		probes  = flag.Bool("probes", false, "run only the per-layer probes")
		aa      = flag.Bool("aa", false, "run the end-to-end suite twice on the same seed and check the two agree within the bounds")
		smoke   = flag.Bool("smoke", false, "every workload for 300 ms on 2^10 blocks, checking that every metric is reported")
		scratch = flag.String("scratch", filepath.Join(".bench_build", "scratch"), "directory for the file store's data and the probes' bucket files")
		out     = flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json and trace-<workload>.jsonl")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	// More runnable goroutines than cores would measure the scheduler.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatalf("GOMAXPROCS %d exceeds the %d available cores", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if l := loadavg1(); l > float64(runtime.NumCPU())/2 {
		fmt.Fprintf(os.Stderr, "benchmark: WARNING: 1-minute load average %.2f is over half the %d cores; timings will be noisy\n", l, runtime.NumCPU())
	}
	// The file store's scratch directory goes on success, failure and ^C.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		removeAllDataDirs()
		os.Exit(130)
	}()

	opts := runOpts{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		BlocksLog2: defaultBlocksLog2, Warmup: 500 * time.Millisecond, Setups: 9, Recovers: 15,
		Scratch: *scratch, OutDir: *out, ProbeScale: 1,
	}
	switch {
	case *smoke:
		os.Exit(runSmoke(os.Stdout, opts))
	case *probes:
		opts.ProbeScale = 3
		os.Exit(runProbesOnly(os.Stdout, opts))
	case *aa:
		os.Exit(runAA(os.Stdout, opts))
	case *name != "":
		if *trace != 0 && *trace != 1 {
			fatalf("-trace must be 0 or 1, got %d", *trace)
		}
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		os.Exit(runOne(os.Stdout, w, opts))
	default:
		os.Exit(runSuite(os.Stdout, opts))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// measure is one whole run of one workload, with the probes and what is
// derived from them when the run is the traced one.
func measure(w workload, opts runOpts) (*result, error) {
	res, err := runWorkload(w, opts)
	if err != nil {
		return nil, err
	}
	if opts.Trace {
		probes, err := runProbes(opts.BlocksLog2, opts.ProbeScale, opts.Scratch)
		if err != nil {
			return nil, err
		}
		res.derive(w.sized(opts.BlocksLog2), probes)
	}
	return res, nil
}

// runOne is the driver's entry: one workload in this process, every metric
// printed by name, the contract's JSON object last. It exits non-zero —
// and prints no result line — when the run could not be made, and non-zero
// after the result line when an output was wrong.
func runOne(out io.Writer, w workload, opts runOpts) int {
	res, err := measure(w, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	res.print(out)
	if opts.OutDir != "" {
		if err := writeJSON(filepath.Join(opts.OutDir, fmt.Sprintf("run-%s-trace%d.json", w.Name, b2i(opts.Trace))), res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(out, res.lastLine())
	if !res.ok() {
		return 1
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// child runs one workload in a re-exec'd copy of this binary, so that its
// CPU time, resident-set high-water mark and heap are its own, and returns
// what it wrote to run-<workload>-trace<n>.json.
func child(out io.Writer, w workload, opts runOpts) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", w.Name, "-seed", fmt.Sprint(opts.Seed), "-seconds", fmt.Sprint(opts.Seconds),
		"-trace", fmt.Sprint(b2i(opts.Trace)), "-scratch", opts.Scratch, "-out", opts.OutDir)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Pass the child's table through, keep its last line to ourselves.
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "{") {
			fmt.Fprintln(out, line)
		}
	}
	runErr := cmd.Wait()
	path := filepath.Join(opts.OutDir, fmt.Sprintf("run-%s-trace%d.json", w.Name, b2i(opts.Trace)))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: child left no result (%v)", w.Name, runErr)
	}
	os.Remove(path)
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// suiteFile is what results.json holds.
type suiteFile struct {
	Date      string             `json:"date"`
	GoVersion string             `json:"go_version"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Host      map[string]float64 `json:"host"`
	EndToEnd  []*result          `json:"end_to_end"`
	PerLayer  []*result          `json:"per_layer"`
}

// runSuite runs every workload, one at a time, each phase in its own child:
// the end-to-end run with tracing off, then the traced run with the probes.
func runSuite(out io.Writer, opts runOpts) int {
	file := suiteFile{Date: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
		Seed: opts.Seed, Seconds: opts.Seconds, Host: make(map[string]float64)}
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := opts
			o.Trace = traced
			res, err := child(out, w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			if !res.ok() {
				code = 1
			}
			if traced {
				file.PerLayer = append(file.PerLayer, res)
				for name, v := range res.Metrics {
					if strings.HasPrefix(name, "host.") {
						file.Host[name] = v.Value
					}
				}
			} else {
				file.EndToEnd = append(file.EndToEnd, res)
			}
		}
	}
	if err := writeJSON(filepath.Join(opts.OutDir, "results.json"), file); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	printSeparation(out, file)
	return code
}

// printSeparation shows what the workloads were chosen for: which side of
// the store's Service boundary the client's time goes to, and which
// workloads checkpoint or issue dummies at all.
func printSeparation(out io.Writer, f suiteFile) {
	fmt.Fprintf(out, "\n%-18s %13s %13s %14s %10s %11s %10s\n", "workload", "client_p50_us", "store_call_us", "outside_store", "ckpt_busy", "dummy_frac", "reconcile")
	for _, r := range f.PerLayer {
		m := func(name string) float64 { return r.Metrics[name].Value }
		client, store := m("trace.client_p50_us"), m("server.store_call_us")
		fmt.Fprintf(out, "%-18s %13.1f %13.1f %13.0f%% %10.4f %11.4f %10.3f\n", r.Workload, client, store,
			100*hopSelf(client, store)/client, m("server.checkpoint_busy_frac"), m("server.dummy_frac"), m("trace.reconcile_frac"))
	}
}

// runAA is the A/A check: the same code, the same seed, twice; every pair
// of medians must agree within the metric's own bound.
func runAA(out io.Writer, opts runOpts) int {
	opts.Trace = false
	var runs [2][]*result
	for i := range runs {
		for _, w := range workloads {
			res, err := child(io.Discard, w, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			if !res.ok() || !res.Valid {
				fmt.Fprintf(os.Stderr, "benchmark: %s: run %d failed=%d invalid=%q\n", w.Name, i+1, res.Failed, res.Invalid)
				return 1
			}
			runs[i] = append(runs[i], res)
		}
	}
	fmt.Fprintf(out, "A/A check: seed %d, %.0f s windows, %s, %d cores, load %.2f\n", opts.Seed, opts.Seconds, runtime.Version(), runtime.NumCPU(), loadavg1())
	fmt.Fprintf(out, "%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	code := 0
	for i, w := range workloads {
		for _, d := range endToEnd {
			a, b := runs[0][i].Metrics[d.Name].Value, runs[1][i].Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  OUTSIDE"
				code = 1
			}
			fmt.Fprintf(out, "%-18s %-20s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", w.Name, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}

func runProbesOnly(out io.Writer, opts runOpts) int {
	probes, err := runProbes(opts.BlocksLog2, opts.ProbeScale, opts.Scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	for _, d := range perLayer {
		if v, ok := probes[d.Name]; ok {
			fmt.Fprintf(out, "  %-36s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	return 0
}

// runSmoke is the tripwire for a refactor that breaks the benchmark's build
// or wiring: every workload, both runs, tiny and short, every named metric
// present and finite.
func runSmoke(out io.Writer, opts runOpts) int {
	opts.Seconds, opts.Warmup = 0.3, 50*time.Millisecond
	opts.BlocksLog2, opts.Setups, opts.Recovers, opts.ProbeScale = 10, 3, 1, 0.02
	opts.OutDir = ""
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opts.Trace = traced
			res, err := measure(w, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			for _, problem := range res.problems() {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.Name, problem)
				code = 1
			}
			fmt.Fprintf(out, "%-18s trace %d: %d metrics, %d ops attempted, %d failed\n", w.Name, b2i(traced), len(res.Metrics), res.Attempted, res.Failed)
		}
	}
	return code
}
