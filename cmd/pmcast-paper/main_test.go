package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// quickAllSHA256 pins `pmcast-paper fig -quick -runs 2 all`. A change that
// moves a figure on purpose re-pins it and says why.
const quickAllSHA256 = "b9547c607e3d6de044d091079cbfa15568c28a71d0601631f60cddf64c5727ce"

func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return buf.String()
}

func TestFiguresArePinned(t *testing.T) {
	out := runArgs(t, "fig", "-quick", "-runs", "2", "all")
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != quickAllSHA256 {
		t.Errorf("fig -quick -runs 2 all: sha256 %s, want %s\n%s", got, quickAllSHA256, out)
	}
}

func TestSubcommandsPrintHeaders(t *testing.T) {
	cases := []struct {
		args   []string
		header string
	}{
		{[]string{"fig", "-quick", "-runs", "2", "5"}, "pd,uninterested_reception,reception_ci95,runs"},
		{[]string{"fig", "views"}, "d,view_size"},
		{[]string{"sim", "-a", "5", "-d", "2", "-r", "2", "-runs", "2", "-per-run"},
			"run,interested,delivered,delivery_rate,uninterested_received,uninterested_rate,rounds,messages"},
		{[]string{"sim", "-a", "5", "-d", "2", "-r", "2", "-runs", "2"}, "metric,mean,ci95,runs"},
		{[]string{"sim", "-a", "5", "-d", "2", "-r", "2", "-runs", "-1"}, "metric,mean,ci95,runs"},
		{[]string{"model"}, "pd,reliability_eq18,expected_delivered,audience"},
		{[]string{"model", "rounds"}, "pd,tree_rounds_eq13,flat_rounds_eq11"},
		{[]string{"model", "-pd", "0.2", "depths"}, "depth,p_i,m_i,eff_size,eff_fanout,rounds_T_i,expected_infected,r_i"},
		{[]string{"model", "views"}, "d,view_size"},
	}
	for _, c := range cases {
		if out := runArgs(t, c.args...); !strings.Contains(out, c.header+"\n") {
			t.Errorf("%v: no header %q in\n%s", c.args, c.header, out)
		}
	}
	// fig views is model views at the paper's population.
	if f, m := runArgs(t, "fig", "views"), runArgs(t, "model", "-n", "10648", "-r", "3", "-maxd", "10", "views"); f != m {
		t.Errorf("fig views\n%s\ndiffers from model views\n%s", f, m)
	}
}

// An explicit ε = τ = 0 is a loss-free environment, not a request for the
// paper's default.
func TestZeroLossReachesFigures(t *testing.T) {
	lossy := runArgs(t, "fig", "-quick", "-runs", "2", "4")
	clean := runArgs(t, "fig", "-quick", "-runs", "2", "-eps", "0", "-tau", "0", "4")
	if clean == lossy {
		t.Errorf("fig 4 with -eps 0 -tau 0 prints the default environment's CSV:\n%s", clean)
	}
}

func TestUnknownNamesFail(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bench"},
		{"fig", "8"},
		{"fig", "4", "5"},
		{"fig", "all", "-quick"},
		{"model", "figure"},
		{"sim", "extra"},
		{"sim", "-f", "2.5"},
	} {
		if err := run(&bytes.Buffer{}, args); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
