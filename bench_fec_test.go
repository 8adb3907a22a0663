// Benchmarks for the coding layer: the hot symbol-arithmetic paths
// (encode is on every coded round's critical path, decode only on loss)
// and the frontier summary cells — one coded and one uncoded campaign at
// the acceptance point, under Bernoulli and under bursty loss, reporting
// reliability and bytes/event as custom metrics.
package pmcast_test

import (
	"testing"

	"pmcast/internal/experiments"
	"pmcast/internal/fec"
	"pmcast/internal/harness"
	"pmcast/internal/transport"
)

const fecSymLen = 1024

func fecBenchShards(k int) [][]byte {
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, fecSymLen)
		for j := range src[i] {
			src[i][j] = byte(i*31 + j)
		}
	}
	return src
}

// BenchmarkFECEncode measures EncodeInto on preallocated shards — the
// steady-state shape the encoder uses. The xor case (r = 1) is the pure
// parity path and must not allocate.
func BenchmarkFECEncode(b *testing.B) {
	for _, tc := range []struct {
		name string
		k, r int
	}{
		{"xor_k8_r1", 8, 1},
		{"rs_k8_r2", 8, 2},
		{"rs_k16_r4", 16, 4},
	} {
		b.Run(tc.name, func(b *testing.B) {
			code, err := fec.NewCode(tc.k, tc.r)
			if err != nil {
				b.Fatal(err)
			}
			src := fecBenchShards(tc.k)
			repairs := make([][]byte, tc.r)
			for i := range repairs {
				repairs[i] = make([]byte, fecSymLen)
			}
			b.SetBytes(int64(tc.k * fecSymLen))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				code.EncodeInto(repairs, src)
			}
		})
	}
}

// TestXOREncodeZeroAlloc pins the allocation contract the benchmark only
// reports: the r = 1 parity encode over reused shards is allocation-free.
func TestXOREncodeZeroAlloc(t *testing.T) {
	code, err := fec.NewCode(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := fecBenchShards(8)
	repairs := [][]byte{make([]byte, fecSymLen)}
	allocs := testing.AllocsPerRun(100, func() {
		code.EncodeInto(repairs, src)
	})
	if allocs != 0 {
		t.Errorf("XOR encode allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkFECDecode measures Reconstruct with the worst tolerable hole
// count: r missing source symbols patched from r repair symbols.
func BenchmarkFECDecode(b *testing.B) {
	for _, tc := range []struct {
		name string
		k, r int
	}{
		{"xor_k8_r1", 8, 1},
		{"rs_k8_r2", 8, 2},
		{"rs_k16_r4", 16, 4},
	} {
		b.Run(tc.name, func(b *testing.B) {
			code, err := fec.NewCode(tc.k, tc.r)
			if err != nil {
				b.Fatal(err)
			}
			src := fecBenchShards(tc.k)
			repairs := make([][]byte, tc.r)
			for i := range repairs {
				repairs[i] = make([]byte, fecSymLen)
			}
			code.EncodeInto(repairs, src)
			shards := make([][]byte, tc.k+tc.r)
			b.SetBytes(int64(tc.k * fecSymLen))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(shards, src)
				copy(shards[tc.k:], repairs)
				for x := 0; x < tc.r; x++ {
					shards[x] = nil // the r hardest holes: all in the source rows
				}
				if err := code.Reconstruct(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrontierPoint runs the acceptance cells of the reliability/
// bytes frontier — coded low-fan-out against uncoded high-fan-out on
// frontier64 at 40% loss — and reports each cell's axes as custom
// metrics. One iteration is one full seeded campaign.
func BenchmarkFrontierPoint(b *testing.B) {
	base, err := harness.Lookup("frontier64")
	if err != nil {
		b.Fatal(err)
	}
	cells := []struct {
		name    string
		f, k, r int
	}{
		{"coded_f6_k8_r2", 6, 8, 2},
		{"uncoded_f7", 7, 8, 0},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			var rel, bytes, rounds float64
			for i := 0; i < b.N; i++ {
				pt, err := experiments.FrontierPointAt(base, 1, 0.40, transport.LinkModel{}, c.f, c.k, c.r)
				if err != nil {
					b.Fatal(err)
				}
				rel += pt.MeanReliability
				bytes += pt.BytesPerEvent
				rounds += pt.RoundsToDeliveryP99
			}
			n := float64(b.N)
			b.ReportMetric(rel/n, "reliability")
			b.ReportMetric(bytes/n, "bytes/event")
			b.ReportMetric(rounds/n, "rounds-p99")
		})
	}
}

// BenchmarkFrontierPointBursty re-runs the frontier acceptance cells under
// correlated loss: deep Gilbert–Elliott bursts (~28.6% stationary)
// instead of Bernoulli drops. The coded arm's Pareto win must survive the
// burstier fault model — the cells record where it lands.
func BenchmarkFrontierPointBursty(b *testing.B) {
	base, err := harness.Lookup("frontier64")
	if err != nil {
		b.Fatal(err)
	}
	link := transport.LinkModel{BadLoss: 1, PGB: 0.04, PBG: 0.10}
	cells := []struct {
		name    string
		f, k, r int
	}{
		{"coded_f6_k8_r2", 6, 8, 2},
		{"uncoded_f7", 7, 8, 0},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			var rel, bytes, rounds float64
			for i := 0; i < b.N; i++ {
				pt, err := experiments.FrontierPointAt(base, 1, 0, link, c.f, c.k, c.r)
				if err != nil {
					b.Fatal(err)
				}
				rel += pt.MeanReliability
				bytes += pt.BytesPerEvent
				rounds += pt.RoundsToDeliveryP99
			}
			n := float64(b.N)
			b.ReportMetric(rel/n, "reliability")
			b.ReportMetric(bytes/n, "bytes/event")
			b.ReportMetric(rounds/n, "rounds-p99")
		})
	}
}
