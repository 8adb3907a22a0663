// pmcast-chaos runs one named chaos scenario from the deterministic
// virtual-time harness and emits a JSON report. The same (scenario, seed)
// pair always produces the same delivery trace; the report carries its
// SHA-256 so runs can be compared across machines and commits.
//
// Usage:
//
//	pmcast-chaos -list
//	pmcast-chaos -scenario churn1024 -seed 7
//	pmcast-chaos -scenario lossy256 -seed 1 -o report.json -trace run.trace
//	pmcast-chaos -scenario frontier64 -fec-k 8 -fec-r 2   # run with the coding layer on
//	pmcast-chaos -scenario soak256 -cpuprofile soak.pprof   # profile a soak run
//	pmcast-chaos -scenario soak64k -shards 8   # 64k nodes across eight workers
//	pmcast-chaos -scenario churn16k -shards 1   # same trace, one inline worker
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"pmcast/internal/harness"
)

func main() {
	var (
		name       = flag.String("scenario", "smoke16", "named scenario to run (see -list)")
		seed       = flag.Int64("seed", 1, "campaign seed; same seed ⇒ byte-identical delivery trace")
		out        = flag.String("o", "", "write the JSON report here (default stdout)")
		traceOut   = flag.String("trace", "", "also write the raw delivery trace to this file")
		list       = flag.Bool("list", false, "list the scenario catalog and exit")
		fanout     = flag.Int("fanout", 0, "override the fleet's gossip fan-out F (0 keeps the scenario's own setting)")
		fecK       = flag.Int("fec-k", 0, "coding-layer generation size k (0 keeps the scenario's own setting)")
		fecR       = flag.Int("fec-r", -1, "repair symbols per generation r (-1 keeps the scenario's own setting; 0 disables coding)")
		shards     = flag.Int("shards", 0, "override the scenario's worker count (0 keeps its own setting; the trace is byte-identical at any value; 1 runs the loop inline, and a scenario whose fabric has no delay always does)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run here (soak profiling)")
	)
	flag.Parse()

	if *list {
		for _, n := range harness.ScenarioNames() {
			s, _ := harness.Lookup(n)
			fmt.Printf("%-10s %4d nodes, %s bootstrap, horizon %s\n",
				n, s.Nodes, s.Bootstrap, s.Horizon)
		}
		return
	}

	sc, err := harness.Lookup(*name)
	if err != nil {
		fatal(err)
	}
	if *fanout > 0 {
		sc.Fleet.F = *fanout
	}
	if *fecK > 0 {
		sc.Fleet.FECSources = *fecK
	}
	if *fecR >= 0 {
		sc.Fleet.FECRepairs = *fecR
	}
	if *shards > 0 {
		sc.Shards = *shards
	}
	var profileOut *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		profileOut = f
	}
	res, err := sc.Run(*seed)
	if profileOut != nil {
		// Stop and flush before any exit path — fatal os.Exits past defers —
		// so the profile covers exactly the campaign and is always complete.
		pprof.StopCPUProfile()
		profileOut.Close()
	}
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, res.Trace, 0o644); err != nil {
			fatal(err)
		}
	}
	enc, err := json.MarshalIndent(res.Report, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if sc.Fleet.FECRepairs > 0 {
		fmt.Fprintf(os.Stderr,
			"pmcast-chaos: fec k=%d r=%d  repair_bytes_per_event=%.1f  fec_recoveries=%d  rounds_to_delivery_p99=%.1f\n",
			sc.Fleet.FECSources, sc.Fleet.FECRepairs,
			res.Report.RepairBytesPerEvent, res.Report.FECRecoveries, res.Report.RoundsToDeliveryP99)
	}
	if res.Report.FoldRecomputes > 0 {
		fmt.Fprintf(os.Stderr,
			"pmcast-chaos: matcher  fold_recompiles=%d  fold_cache_hits=%d  fold_cache=%d(evict %d)  compiler=%d(evict %d)\n",
			res.Report.FoldRecomputes, res.Report.FoldCacheHits,
			res.Report.FoldCacheEntries, res.Report.FoldCacheEvictions,
			res.Report.CompilerEntries, res.Report.CompilerEvictions)
	}
	fmt.Fprintf(os.Stderr,
		"pmcast-chaos: summaries  false_positive_rate=%.4f  class_buckets=%d\n",
		res.Report.SummaryFPRate, len(res.Report.ClassReliability))
	for _, cr := range res.Report.ClassReliability {
		rel := fmt.Sprintf("mean=%.4f min=%.4f", cr.MeanReliability, cr.MinReliability)
		if cr.Audienced == 0 {
			rel = "n/a (no audience)"
		}
		fmt.Fprintf(os.Stderr,
			"pmcast-chaos:   bucket=%d  events=%d  reliability %s  fp_rate=%.4f\n",
			cr.Bucket, cr.Events, rel, cr.SummaryFPRate)
	}
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmcast-chaos:", err)
	os.Exit(1)
}
