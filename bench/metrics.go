package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The lists below are the program's
// side of BENCHMARK.json: a test holds the two to the same names and units,
// and the bounds and directions live in BENCHMARK.json alone.
type metricDef struct {
	Name, Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"deliver_mean_ms", "ms"},
	{"deliver_p99_ms", "ms"},
	{"capacity_eps", "events/s"},
	{"cpu_us_per_delivery", "us"},
	{"delivery_ratio", "ratio"},
	{"msgs_per_delivery", "count"},
	{"heap_mb_per_node", "MB"},
	{"wall_s", "s"},
}

var perLayer = []metricDef{
	{"wire.encode_batch_ns", "ns"},
	{"wire.decode_batch_ns", "ns"},
	{"wire.encode_allocs", "count"},
	{"wire.decode_allocs", "count"},
	{"wire.bytes_per_envelope", "B"},
	{"wire.events_per_envelope", "count"},
	{"wire.encode_ns_64b", "ns"},
	{"wire.encode_ns_1kb", "ns"},
	{"wire.encode_ns_batch16", "ns"},

	{"transport.udp.send_ns_per_datagram", "ns"},
	{"transport.udp.datagrams_per_send_syscall", "count"},
	{"transport.udp.datagrams_per_recv_syscall", "count"},
	{"transport.udp.inbox_depth_p99", "count"},
	{"transport.udp.dropped", "count"},
	{"transport.udp.malformed", "count"},

	{"transport.send_ns_per_envelope", "ns"},
	{"transport.envelopes_per_delivery", "count"},
	{"transport.inbox_depth_p99", "count"},
	{"transport.dropped", "count"},
	{"transport.route_ns_linkmodel", "ns"},

	{"node.publish_call_us_p50", "us"},
	{"node.publish_call_us_p99", "us"},
	{"node.delivery_chan_depth_p99", "count"},
	{"node.dropped_deliveries", "count"},
	{"node.egress_dropped", "count"},
	{"node.tick_gossip_us", "us"},
	{"node.handle_envelope_us", "us"},
	{"node.deliver_p50_ms", "ms"},
	{"node.deliver_p99_ms", "ms"},
	{"node.idle_cpu_ms_per_node_s", "ms"},

	{"core.tick_round_us", "us"},
	{"core.receive_ns", "ns"},
	{"core.adopt_state_us", "us"},
	{"core.sends_per_event", "count"},
	{"core.match_cache_hit_ratio", "ratio"},

	{"interest.match_compiled_ns", "ns"},
	{"interest.match_comparisons_per_event", "count"},
	{"interest.compile_us", "us"},
	{"interest.compile_summary_us", "us"},
	{"interest.compiler_entries", "count"},
	{"interest.compiler_evictions", "count"},

	{"tree.build_ms_1024", "ms"},
	{"tree.apply_delta_us", "us"},
	{"tree.view_profile_ns", "ns"},
	{"tree.fold_recomputes", "count"},
	{"tree.fold_cache_hit_ratio", "ratio"},
	{"tree.fold_hit_ns", "ns"},

	{"membership.handle_digest_us_64", "us"},
	{"membership.handle_digest_us_4096", "us"},
	{"membership.make_digest_us", "us"},
	{"membership.apply_update_us", "us"},
	{"membership.msgs_per_node_s", "1/s"},
	{"membership.flux_effective_p50_ms", "ms"},
	{"membership.join_converge_ms", "ms"},

	{"fec.encode_ns_k8r2", "ns"},
	{"fec.xor_encode_ns_k8r1", "ns"},
	{"fec.reconstruct_ns_k8r2", "ns"},

	{"clock.schedule_pop_ns", "ns"},
	{"harness.clock_events", "count"},
	{"harness.clock_events_per_s", "1/s"},
	{"harness.envelopes", "count"},
	{"harness.match_evals", "count"},
	{"harness.fold_recomputes", "count"},
	{"harness.fold_cache_hits", "count"},
	{"harness.soak256_wall_ms", "ms"},
	{"harness.churn1024_wall_ms", "ms"},

	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.allocs_per_delivery", "count"},
	{"runtime.alloc_kb_per_delivery", "kB"},
	{"runtime.heap_growth_kb_per_kevent", "kB"},
	{"runtime.peak_rss_mb", "MB"},

	{"sim.dissemination_ms", "ms"},
	{"addr.key_ns", "ns"},
	{"event.build_ns", "ns"},

	{"layer_share.wire", "%"},
	{"layer_share.transport.udp", "%"},
	{"layer_share.transport", "%"},
	{"layer_share.node", "%"},
	{"layer_share.core", "%"},
	{"layer_share.interest", "%"},
	{"layer_share.tree", "%"},
	{"layer_share.membership", "%"},
	{"layer_share.fec", "%"},
	{"layer_share.clock", "%"},
	{"layer_share.harness", "%"},
	{"layer_share.runtime", "%"},
	{"layer_share.unattributed", "%"},
	{"trace.overhead_pct", "%"},
}

// result is the contract's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one workload run as `-out` appends it and `compare` reads it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Valid    bool   `json:"valid"`
	SHA      string `json:"workload_sha"`
	result
}

// assemble picks exactly the defined metrics out of the measured values;
// a metric the run did not produce is an error, not a silent zero.
func assemble(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("run produced no value for %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// printTable writes every metric by name with its unit, then the side
// figures, in a stable order.
func printTable(w io.Writer, workload string, defs []metricDef, vals map[string]float64, samples map[string]int, extra map[string]float64) {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			line := fmt.Sprintf("%-18s %-44s %14s %-6s", workload, d.Name, formatValue(v), d.Unit)
			if n, ok := samples[d.Name]; ok {
				line += fmt.Sprintf(" n=%d", n)
			}
			fmt.Fprintln(w, line)
		}
	}
	defined := make(map[string]bool, len(defs))
	for _, d := range defs {
		defined[d.Name] = true
	}
	names := make([]string, 0, len(extra))
	for name := range extra {
		if !defined[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("%-18s %-44s %14s %-6s", workload, "("+name+")", formatValue(extra[name]), "")
		if n, ok := samples[name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
}

// formatValue prints a whole number with all its digits — the campaign's
// counts are compared digit for digit — and anything else to six figures.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func marshalLine(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err.Error())
	}
	return string(b)
}
