package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and regression bound.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRuns loads the untraced, valid-or-not runs of a `-out` file, grouped
// by workload then metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue // end-to-end numbers come from untraced runs only
		}
		byMetric := out[rec.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			out[rec.Workload] = byMetric
		}
		for name, mv := range rec.Metrics {
			byMetric[name] = append(byMetric[name], mv.Value)
		}
	}
	return out, sc.Err()
}

// verdict classifies one workload × metric pair. worse is the share of the
// old median by which the new median is worse (negative: better).
//
//	regressed   worse by more than the bound, and the runs resolve it
//	unresolved  the run-to-run spread is wider than the bound, so a change
//	            of that size could hide in it — unless every new run reads
//	            better than every old one (then ok) or worse (then regressed)
//	ok          anything else
func verdict(old, new []float64, higherBetter bool, bound float64) (status string, worse, spread float64) {
	mo, mn := median(old), median(new)
	if mo != 0 {
		worse = (mn - mo) / mo
		if higherBetter {
			worse = -worse
		}
	}
	spread = quartileSpread(old)
	if s := quartileSpread(new); s > spread {
		spread = s
	}
	allBetter, allWorse := true, true
	for _, n := range new {
		for _, o := range old {
			better := n < o
			if higherBetter {
				better = n > o
			}
			if n == o {
				allBetter, allWorse = false, false
			} else if better {
				allWorse = false
			} else {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && allBetter:
		return "ok", worse, spread
	case spread > bound && !(allWorse && worse > bound):
		return "unresolved", worse, spread
	case worse > bound:
		return "regressed", worse, spread
	}
	return "ok", worse, spread
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	bench := fs.String("benchmark", "", "path of BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	paths := []string{*bench}
	if *bench == "" {
		paths = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var bf *benchmarkFile
	var err error
	for _, p := range paths {
		if bf, err = readBenchmarkFile(p); err == nil {
			break
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	old, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	new, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	workloads := make([]string, 0, len(new))
	for w := range new {
		if _, ok := old[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	regressed := 0
	fmt.Printf("%-18s %-22s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			o, n := old[w][m.Name], new[w][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			status, worse, spread := verdict(o, n, m.Better == "higher", m.Bound)
			if status == "regressed" {
				regressed++
			}
			fmt.Printf("%-18s %-22s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%%  %s (n=%d/%d)\n",
				w, m.Name, median(o), median(n), 100*worse, 100*spread, 100*m.Bound, status, len(o), len(n))
		}
	}
	if regressed > 0 {
		fmt.Printf("%d workload × metric pairs regressed\n", regressed)
		return 1
	}
	return 0
}
