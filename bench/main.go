// Command bench is pmcast's benchmark: it hosts a fleet of real nodes in one
// process, publishes on an open-loop schedule made from a seed, times every
// delivery at every subscriber on the generator's own clock, and reports
// publish→deliver latency, capacity and cost per delivery — plus the wall
// clock and memory of the zipf1m harness campaign. A traced pass attributes
// the cost to layers. See README.md.
//
//	bench -workload udp_broadcast -seed 1 -seconds 15 -trace 0
//	bench compare old.jsonl new.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	noFlux   bool
	out      string
	traceDir string
	report   io.Writer // where the human-readable report goes
}

func benchMain(args []string) int {
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	o := options{report: os.Stdout}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all, in order)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", cfg.DefaultSeconds, "how long a live workload's timed phases last together")
	fs.IntVar(&o.trace, "trace", 0, "1: traced pass, per-layer metrics; 0: untraced pass, end-to-end metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "seconds-long shapes for tests: 4 nodes, 1 s phases, smoke16 campaign")
	fs.BoolVar(&o.noFlux, "noflux", false, "control run: mem_zipf_flux without its Subscribe stream")
	fs.StringVar(&o.out, "out", "", "append each run as a JSON line to this file (input of `bench compare`)")
	fs.StringVar(&o.traceDir, "tracedir", "out", "directory the traced pass writes trace-<workload>.jsonl into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.smoke {
		cfg.applySmoke()
	}
	if o.noFlux {
		cfg.Workloads["mem_zipf_flux"].FluxPerS = 0
	}
	procs := runtime.NumCPU()
	if procs > cfg.MaxProcs {
		procs = cfg.MaxProcs
	}
	runtime.GOMAXPROCS(procs)

	names := workloadOrder
	if o.workload != "" {
		if _, ok := cfg.Workloads[o.workload]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadOrder, ", "))
			return 2
		}
		names = []string{o.workload}
	}
	printHeader(o, procs)
	code := 0
	var last string
	for _, name := range names {
		rec, err := runWorkload(cfg, cfg.Workloads[name], o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if !rec.Correct {
			code = 1
		}
		if o.out != "" {
			if err := appendLine(o.out, marshalLine(rec)); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		last = marshalLine(rec.result)
	}
	// The last line of standard output is the (last) workload's result.
	fmt.Println(last)
	return code
}

func printHeader(o options, procs int) {
	fmt.Printf("# pmcast bench  seed=%d seconds=%g trace=%d smoke=%v\n", o.seed, o.seconds, o.trace, o.smoke)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s kernel=%s\n", runtime.NumCPU(), procs, runtime.Version(), kernelVersion())
	fmt.Printf("# live fleets run in this one process; traffic crosses the host loopback (udp_*) or no network at all (mem_*, sim_*), never a real link\n")
	fmt.Printf("# started %s\n", time.Now().UTC().Format(time.RFC3339))
}

func kernelVersion() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func appendLine(path, line string) error {
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(fh, line); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
