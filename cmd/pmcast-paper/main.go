// Command pmcast-paper prints the paper's evaluation as CSV on stdout.
//
//	pmcast-paper fig [flags] <4|5|6|7|views|rounds|baselines|ablation|all>   # Section 5's figures
//	pmcast-paper sim [flags]                                                # one Monte-Carlo campaign
//	pmcast-paper model [flags] <reliability|rounds|depths|views>            # Section 4's model
//
// Flags default to the paper's environment (ε = 0.01, τ = 0.001) and tree
// (a = 22, d = 3, R = 3, F = 2, so n = 10 648): e.g. `fig -quick -runs 2 all`.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"pmcast/internal/analysis"
	"pmcast/internal/experiments"
	"pmcast/internal/sim"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pmcast-paper:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	cmds := map[string]func(io.Writer, []string) error{"fig": runFig, "sim": runSim, "model": runModel}
	if len(args) == 0 || cmds[args[0]] == nil {
		return fmt.Errorf("usage: pmcast-paper <fig|sim|model> [flags] [name]; got %q", args)
	}
	return cmds[args[0]](w, args[1:])
}

// params holds the shared flags, each declared once by its group's method.
type params struct {
	eps, tau, c, pd     float64
	runs, h, a, d, r, f int
	seed                int64
}

// env declares the simulated environment of Section 5.
func (p *params) env(fs *flag.FlagSet) {
	fs.Float64Var(&p.eps, "eps", 0.01, "message loss probability ε")
	fs.Float64Var(&p.tau, "tau", 0.001, "crash fraction τ")
}

// campaign declares a Monte-Carlo campaign. The tuning threshold h is
// Figure 7's tuned arm to fig and the run's own to sim: each has a default.
func (p *params) campaign(fs *flag.FlagSet, h int, hUsage string) {
	fs.IntVar(&p.runs, "runs", 20, "Monte-Carlo runs per point")
	fs.Int64Var(&p.seed, "seed", 1, "base RNG seed")
	fs.IntVar(&p.h, "h", h, hUsage)
}

// tree declares one regular tree, its matching rate and its environment.
func (p *params) tree(fs *flag.FlagSet) {
	p.env(fs)
	fs.IntVar(&p.a, "a", 22, "regular arity: subgroups per node")
	fs.IntVar(&p.d, "d", 3, "tree depth")
	fs.IntVar(&p.r, "r", 3, "redundancy factor R (delegates per subgroup)")
	fs.IntVar(&p.f, "f", 2, "gossip fanout F")
	fs.Float64Var(&p.c, "c", 0, "Pittel constant")
	fs.Float64Var(&p.pd, "pd", 0.5, "matching rate p_d")
}

// parse reads the flags, then at most one name: def when there is none.
func parse(fs *flag.FlagSet, args []string, def string) (string, error) {
	if err := fs.Parse(args); err != nil || fs.NArg() == 0 {
		return def, err
	}
	if fs.NArg() > 1 {
		return "", fmt.Errorf("unexpected argument %q after %q", fs.Arg(1), fs.Arg(0))
	}
	return fs.Arg(0), nil
}

// table is the one CSV printer: the header, then for each row i the values
// cols picks out of it, in format. An error from computing the rows stops it.
func table[T any](w io.Writer, rows []T, err error, cols func(i int, row T) []any, header, format string) error {
	if err != nil {
		return err
	}
	fmt.Fprintln(w, header)
	for i, r := range rows {
		fmt.Fprintf(w, format+"\n", cols(i, r)...)
	}
	return nil
}

// figure makes a fig table of a harness of internal/experiments.
func figure[T any](harness func(experiments.Options) ([]T, error), cols func(int, T) []any, header, format string) func(io.Writer, experiments.Options) error {
	return func(w io.Writer, o experiments.Options) error {
		rows, err := harness(o)
		return table(w, rows, err, cols, header, format)
	}
}

// figures lists fig's tables in the order "all" prints them. Figure 5 is
// the reception columns of Figure 4's campaign.
var figures = []struct {
	name string
	emit func(io.Writer, experiments.Options) error
}{
	{"4", figure(experiments.Figure4, func(_ int, r experiments.DeliveryRow) []any {
		return []any{r.Pd, r.Delivery, r.DeliveryCI, r.AnalyticReliability, r.Rounds, r.Messages, r.Runs}
	}, "pd,delivery,delivery_ci95,analytic_reliability,rounds,messages,runs", "%g,%.4f,%.4f,%.4f,%.1f,%.0f,%d")},
	{"5", figure(experiments.Figure4, func(_ int, r experiments.DeliveryRow) []any {
		return []any{r.Pd, r.UninterestedReception, r.ReceptionCI, r.Runs}
	}, "pd,uninterested_reception,reception_ci95,runs", "%g,%.4f,%.4f,%d")},
	{"6", figure(experiments.Figure6, func(_ int, r experiments.Fig6Row) []any {
		return []any{r.A, r.N, r.DeliveryAtHalf, r.CIHalf, r.DeliveryAtFifth, r.CIFifth, r.Runs}
	}, "a,n,delivery_pd0.5,ci_0.5,delivery_pd0.2,ci_0.2,runs", "%d,%d,%.4f,%.4f,%.4f,%.4f,%d")},
	{"7", figure(experiments.Figure7, func(_ int, r experiments.Fig7Row) []any {
		return []any{r.Pd, r.Original, r.Improved, r.OriginalReception, r.ImprovedReception, r.Runs}
	}, "pd,original,improved,original_uninterested,improved_uninterested,runs", "%g,%.4f,%.4f,%.4f,%.4f,%d")},
	{"views", func(w io.Writer, _ experiments.Options) error { return views(w, 10648, 3, 10) }},
	{"rounds", figure(experiments.RoundsTable, func(_ int, r experiments.RoundsRow) []any {
		return []any{r.Pd, r.TreeRounds, r.FlatRounds, r.SimRounds}
	}, "pd,tree_rounds_eq13,flat_rounds,sim_rounds", "%g,%d,%d,%.1f")},
	{"baselines", figure(experiments.BaselineTable, func(_ int, r experiments.BaselineRow) []any {
		return []any{r.Pd, r.Pmcast, r.Flood, r.Genuine, r.DetTree,
			r.PmcastUninterested, r.FloodUninterested, r.GenuineUninterested, r.DetTreeUninterested,
			r.PmcastMsgs, r.FloodMsgs, r.GenuineMsgs, r.DetTreeMsgs}
	}, "pd,pmcast,flood,genuine,dettree,pmcast_unint,flood_unint,genuine_unint,dettree_unint,pmcast_msgs,flood_msgs,genuine_msgs,dettree_msgs",
		"%g,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.0f,%.0f,%.0f,%.0f")},
	{"ablation", figure(experiments.AblationTable, func(_ int, r experiments.AblationRow) []any {
		return []any{r.Variant, r.Pd, r.Delivery, r.UninterestedReception, r.Rounds, r.Messages}
	}, "variant,pd,delivery,uninterested,rounds,messages", "%s,%g,%.4f,%.4f,%.1f,%.0f")},
}

// views prints Eq. 2/12's view size m at each depth 1…maxD of population n.
func views(w io.Writer, n, r, maxD int) error {
	return table(w, analysis.ViewSizeByDepth(n, r, maxD), nil, func(i, m int) []any { return []any{i + 1, m} }, "d,view_size", "%d,%d")
}

func runFig(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fig <4|5|6|7|views|rounds|baselines|ablation|all>", flag.ContinueOnError)
	var p params
	p.campaign(fs, 8, "Figure 7 tuning threshold")
	p.env(fs)
	quick := fs.Bool("quick", false, "shrunk tree and sweep for fast runs")
	name, err := parse(fs, args, "all")
	if err != nil {
		return err
	}
	o := experiments.Options{Runs: p.runs, Seed: p.seed, Quick: *quick, Eps: p.eps, Tau: p.tau, Threshold: p.h}
	for _, f := range figures {
		if name == "all" {
			fmt.Fprintf(w, "# --- figure %s ---\n", f.name)
		} else if name != f.name {
			continue
		}
		if err := f.emit(w, o); err != nil || name != "all" {
			return err // one figure printed, or a failure
		}
	}
	if name != "all" {
		return fmt.Errorf("unknown figure %q", name)
	}
	return nil
}

func runSim(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	var p params
	p.tree(fs)
	p.campaign(fs, 0, "tuning threshold (0 = untuned)")
	localDescent := fs.Bool("local-descent", false, "enable Section 3.2 start-depth descent")
	perRun := fs.Bool("per-run", false, "print every run, not just the aggregate")
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
		return fmt.Errorf("sim takes flags only: %q", args)
	}
	s, err := sim.New(sim.Params{A: p.a, D: p.d, R: p.r, F: p.f, C: p.c, Eps: p.eps, Tau: p.tau,
		Threshold: p.h, LocalDescent: *localDescent})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# n=%d pd=%g eps=%g tau=%g h=%d\n", s.Params().N(), p.pd, p.eps, p.tau, p.h)
	rng := rand.New(rand.NewSource(p.seed))
	results := make([]sim.Result, max(p.runs, 0)) // -runs below 1 runs none
	var agg sim.Aggregate
	for i := range results {
		if results[i], err = s.Run(p.pd, rng); err != nil {
			return err
		}
		agg.Add(results[i])
	}
	if *perRun {
		table(w, results, nil, func(i int, r sim.Result) []any {
			return []any{i, r.Interested, r.DeliveredInterested, r.DeliveryRate(),
				r.InfectedUninterested, r.UninterestedReceptionRate(), r.Rounds, r.Messages}
		}, "run,interested,delivered,delivery_rate,uninterested_received,uninterested_rate,rounds,messages", "%d,%d,%d,%.4f,%d,%.4f,%d,%d")
	}
	d, u, r, m := &agg.Delivery, &agg.UninterestedReception, &agg.Rounds, &agg.Messages
	fmt.Fprintln(w, "metric,mean,ci95,runs")
	fmt.Fprintf(w, "delivery,%.4f,%.4f,%d\n", d.Mean(), d.CI95(), d.N())
	fmt.Fprintf(w, "uninterested_reception,%.4f,%.4f,%d\n", u.Mean(), u.CI95(), u.N())
	fmt.Fprintf(w, "rounds,%.2f,%.2f,%d\n", r.Mean(), r.CI95(), r.N())
	fmt.Fprintf(w, "messages,%.0f,%.0f,%d\n", m.Mean(), m.CI95(), m.N())
	return nil
}

func runModel(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("model <reliability|rounds|depths|views>", flag.ContinueOnError)
	var p params
	p.tree(fs)
	n := fs.Int("n", 10648, "population (views)")
	maxD := fs.Int("maxd", 10, "max depth (views)")
	name, err := parse(fs, args, "reliability")
	if err != nil {
		return err
	}
	if name == "views" {
		return views(w, *n, p.r, *maxD)
	}
	pds := []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if name == "depths" {
		pds = []float64{p.pd}
	}
	models := make([]*analysis.TreeModel, len(pds))
	for i, pd := range pds {
		if models[i], err = analysis.NewTreeModel(analysis.TreeParams{
			A: p.a, D: p.d, R: p.r, F: float64(p.f), C: p.c, Pd: pd, Eps: p.eps, Tau: p.tau}); err != nil {
			return err
		}
	}
	switch name {
	case "reliability":
		return table(w, models, nil, func(_ int, m *analysis.TreeModel) []any {
			return []any{m.Params().Pd, m.Reliability(), m.ExpectedDelivered(), float64(m.Params().N()) * m.Params().Pd}
		}, "pd,reliability_eq18,expected_delivered,audience", "%g,%.4f,%.1f,%.1f")
	case "rounds":
		return table(w, models, nil, func(_ int, m *analysis.TreeModel) []any {
			return []any{m.Params().Pd, m.TotalRounds(), m.FlatRounds()}
		}, "pd,tree_rounds_eq13,flat_rounds_eq11", "%g,%d,%d")
	case "depths":
		return table(w, models[0].Depths(), nil, func(_ int, ds analysis.DepthStats) []any {
			return []any{ds.Depth, ds.Pi, ds.Mi, ds.EffSize, ds.EffFanout, ds.Rounds, ds.ExpectedInfected, ds.NodeInfectProb}
		}, "depth,p_i,m_i,eff_size,eff_fanout,rounds_T_i,expected_infected,r_i", "%d,%.4f,%d,%.2f,%.3f,%d,%.2f,%.4f")
	}
	return fmt.Errorf("unknown model table %q", name)
}
