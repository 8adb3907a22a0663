// The multi-process loopback soak: the kernel fast path measured as it
// actually deploys — separate operating-system processes exchanging UDP
// datagrams, not goroutines sharing a fabric. BenchmarkUDPLoopbackSoak
// re-executes the test binary once per fleet member (TestMain dispatches
// the children), streams a publish burst through the fleet, holds both
// modes to a lossless datapath and matched ≥98% delivery, and reports
// events/sec, syscalls/event and datagrams/syscall (recorded in DESIGN.md
// "The kernel fast path": ~8.4 syscalls/event portable vs ~0.82 batched).
package pmcast_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pmcast"
	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/node"
)

const soakChildEnv = "PMCAST_UDP_SOAK_CHILD"

// TestMain lets the test binary double as the soak's fleet member: with the
// child environment set, the process runs one UDP node instead of the test
// suite.
func TestMain(m *testing.M) {
	if os.Getenv(soakChildEnv) != "" {
		os.Exit(soakChild())
	}
	os.Exit(m.Run())
}

// soakStats is one child's JSON report, printed as its last stdout line.
type soakStats struct {
	Delivered     int64 `json:"delivered"`
	Expected      int64 `json:"expected"`
	SendSyscalls  int64 `json:"sendSyscalls"`
	SentDatagrams int64 `json:"sentDatagrams"`
	RecvSyscalls  int64 `json:"recvSyscalls"`
	RecvDatagrams int64 `json:"recvDatagrams"`
	Malformed     int64 `json:"malformed"`
	DroppedInbox  int64 `json:"droppedInbox"`
	EgressDropped int64 `json:"egressDropped"`
	ElapsedMs     int64 `json:"elapsedMs"`
}

// Soak shape: 16 processes (4×4 tree — subgroups of four gossip far more
// reliably than binary ones), four of them publishing a burst each, every
// process expected to deliver every event (match-all subscriptions).
const (
	soakArity      = 4
	soakDepth      = 2
	soakPublishers = 4
	soakPerPub     = 300
)

// soakChild runs one fleet member: a staged-engine node on a kernel-batched
// (or, in fallback mode, single-syscall) UDP transport. The roster is
// applied directly — the soak measures the datapath, not the join dance.
func soakChild() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "soak child:", err)
		return 1
	}
	self := os.Getenv("PMCAST_UDP_SOAK_ADDR")
	mode := os.Getenv("PMCAST_UDP_SOAK_MODE")
	publish, _ := strconv.Atoi(os.Getenv("PMCAST_UDP_SOAK_PUBLISH"))
	peers := map[string]string{}
	for _, kv := range strings.Split(os.Getenv("PMCAST_UDP_SOAK_PEERS"), ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fail(fmt.Errorf("bad peer entry %q", kv))
		}
		peers[k] = v
	}
	res, err := pmcast.NewStaticResolver(peers)
	if err != nil {
		return fail(err)
	}
	cfg := pmcast.UDPConfig{
		Resolver:    res,
		DeferDecode: true,
		QueueLen:    1 << 16,
		// No silent overflow at burst rates: the modes only compare
		// fairly when neither loses frames in its own layer.
		ReadBufferBytes:  8 << 20,
		WriteBufferBytes: 8 << 20,
	}
	if mode == "fallback" {
		cfg.Portable = true
	}
	tr, err := pmcast.NewUDPTransport(cfg)
	if err != nil {
		return fail(err)
	}
	defer tr.Close()

	space := addr.MustRegular(soakArity, soakDepth)
	sub := interest.NewSubscription() // match-all: every event reaches everyone
	recs := make([]membership.Record, space.Capacity())
	for i := range recs {
		recs[i] = membership.Record{Addr: space.AddressAt(i), Sub: sub, Stamp: 1, Alive: true}
	}
	n, err := node.New(tr, node.Config{
		Addr: pmcast.MustParseAddress(self), Space: space,
		// Generous redundancy for a 16-member group: gossip is ε-reliable
		// by design, and the soak compares modes at matched delivery, so
		// fan-out/rounds buy the ε down to the benchmark's floors.
		R: 2, F: 6, C: 8,
		Subscription:       sub,
		GossipInterval:     100 * time.Microsecond,
		MembershipInterval: time.Hour, // membership quiesced: the datapath is the subject
		SuspectAfter:       time.Hour,
		DeliveryBuffer:     1 << 15,
		DecodeWorkers:      2,
		EncodeWorkers:      1, // one egress worker drains the whole queue per flush
		StageQueue:         1 << 13,
	})
	if err != nil {
		return fail(err)
	}
	defer n.Stop()
	n.Membership().Apply(membership.Update{Records: recs})
	if err := n.WarmViews(); err != nil {
		return fail(err)
	}
	n.Start()
	var delivered atomic.Int64
	go func() {
		for range n.Deliveries() {
			delivered.Add(1)
		}
	}()
	total := int64(soakPublishers * soakPerPub)

	// Handshake: announce readiness, then hold the burst until every
	// sibling is up — a child publishing into half-started sockets would
	// measure packet loss, not the datapath.
	fmt.Println("READY")
	sc := bufio.NewScanner(os.Stdin)
	if !sc.Scan() || sc.Text() != "GO" {
		return fail(fmt.Errorf("no GO handshake"))
	}
	start := time.Now()
	if publish > 0 {
		go func() {
			for k := 0; k < soakPerPub; k++ {
				if _, err := n.Publish(map[string]event.Value{
					"b": event.Int(int64(k % 4)),
				}); err != nil {
					fmt.Fprintln(os.Stderr, "soak publish:", err)
					return
				}
				// Pace the burst across a few gossip rounds: an event whose
				// first frames die in an instantaneous 600-event spike has no
				// copies left to recover from, and correlated early death
				// would push the ε-tail below the delivery floors.
				if k%8 == 7 {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
	}
	// Quiesce: full delivery, or a long stretch with no progress at all.
	// Elapsed stops at the last observed progress so the idle stall tail
	// (the ε-misses' timeout) does not dilute events/sec.
	last, stalls := delivered.Load(), 0
	lastProgress := time.Now()
	for delivered.Load() < total && stalls < 120 {
		time.Sleep(5 * time.Millisecond)
		if cur := delivered.Load(); cur == last {
			stalls++
		} else {
			last, stalls = cur, 0
			lastProgress = time.Now()
		}
	}
	count := delivered.Load()
	elapsed := lastProgress.Sub(start)

	st := tr.Stats()
	egressDropped, _ := n.EngineStats()
	out, err := json.Marshal(soakStats{
		Delivered:     count,
		Expected:      total,
		SendSyscalls:  st.SendSyscalls,
		SentDatagrams: st.SentDatagrams,
		RecvSyscalls:  st.RecvSyscalls,
		RecvDatagrams: st.RecvDatagrams,
		Malformed:     st.Malformed,
		DroppedInbox:  st.Dropped,
		EgressDropped: egressDropped,
		ElapsedMs:     elapsed.Milliseconds(),
	})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	return 0
}

// runSoakFleet spawns one child process per address, releases the publish
// burst once every member is up, and aggregates the children's reports.
func runSoakFleet(b *testing.B, mode string) (totals soakStats, wall time.Duration) {
	b.Helper()
	space := addr.MustRegular(soakArity, soakDepth)
	specs := make([]string, space.Capacity())
	addrs := make([]string, space.Capacity())
	for i := range specs {
		port, err := freeSoakPort()
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = space.AddressAt(i).String()
		specs[i] = fmt.Sprintf("%s=127.0.0.1:%d", addrs[i], port)
	}
	peerSpec := strings.Join(specs, ",")

	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
		out   *bufio.Scanner
	}
	children := make([]child, len(addrs))
	for i, a := range addrs {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(),
			soakChildEnv+"=1",
			"PMCAST_UDP_SOAK_ADDR="+a,
			"PMCAST_UDP_SOAK_PEERS="+peerSpec,
			"PMCAST_UDP_SOAK_MODE="+mode,
			fmt.Sprintf("PMCAST_UDP_SOAK_PUBLISH=%d", boolToInt(i < soakPublishers)),
		)
		stdin, err := cmd.StdinPipe()
		if err != nil {
			b.Fatal(err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			b.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			b.Fatal(err)
		}
		children[i] = child{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}
	}
	// Every member up before anyone publishes.
	for i := range children {
		if !children[i].out.Scan() || children[i].out.Text() != "READY" {
			b.Fatalf("child %s never became ready", addrs[i])
		}
	}
	begin := time.Now()
	for i := range children {
		if _, err := io.WriteString(children[i].stdin, "GO\n"); err != nil {
			b.Fatalf("child %s: %v", addrs[i], err)
		}
	}
	for i := range children {
		if !children[i].out.Scan() {
			b.Fatalf("child %s exited without a report", addrs[i])
		}
		var st soakStats
		if err := json.Unmarshal(children[i].out.Bytes(), &st); err != nil {
			b.Fatalf("child %s report %q: %v", addrs[i], children[i].out.Text(), err)
		}
		// The syscall comparison only holds at matched delivery: a mode
		// that lost frames in ITS layer would fake better ratios. The
		// datapath must be lossless (the three counters), while delivery
		// itself is the paper's probabilistic guarantee — gossip rounds
		// are Pittel-bounded, so a small ε-tail of misses is by design
		// and identical in both modes. Hold each child to ε ≤ 5% and the
		// fleet to ε ≤ 2%, and report the achieved rate as a metric so
		// the equal-delivery claim is auditable.
		if st.Malformed != 0 || st.DroppedInbox != 0 || st.EgressDropped != 0 {
			b.Fatalf("child %s (%s) lost frames in the datapath: malformed %d, dropped %d, egress-dropped %d",
				addrs[i], mode, st.Malformed, st.DroppedInbox, st.EgressDropped)
		}
		if st.Delivered < st.Expected*95/100 {
			b.Fatalf("child %s (%s): delivered %d/%d, below the 95%% floor",
				addrs[i], mode, st.Delivered, st.Expected)
		}
		totals.Expected += st.Expected
		totals.Delivered += st.Delivered
		totals.SendSyscalls += st.SendSyscalls
		totals.SentDatagrams += st.SentDatagrams
		totals.RecvSyscalls += st.RecvSyscalls
		totals.RecvDatagrams += st.RecvDatagrams
		if ms := time.Duration(st.ElapsedMs) * time.Millisecond; ms > wall {
			wall = ms
		}
		children[i].stdin.Close()
		if err := children[i].cmd.Wait(); err != nil {
			b.Fatalf("child %s: %v", addrs[i], err)
		}
	}
	if w := time.Since(begin); w > wall {
		wall = w
	}
	return totals, wall
}

// BenchmarkUDPLoopbackSoak is the tentpole's proof: the same 16-process
// fleet and publish burst over real loopback UDP, once per syscall path.
// The acceptance criterion is ≥4× fewer syscalls/event and higher
// events/sec for batched vs fallback at matched delivery — both modes must
// be datapath-lossless and reach the same ≥98% fleet delivery rate (gossip
// is ε-reliable by design, so "all 9600" is not the bar the paper sets);
// the achieved rate is reported alongside the ratios.
func BenchmarkUDPLoopbackSoak(b *testing.B) {
	for _, mode := range []string{"fallback", "batched"} {
		b.Run(mode, func(b *testing.B) {
			var syscalls, datagrams, delivered, expected float64
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				totals, w := runSoakFleet(b, mode)
				syscalls += float64(totals.SendSyscalls + totals.RecvSyscalls)
				datagrams += float64(totals.SentDatagrams + totals.RecvDatagrams)
				delivered += float64(totals.Delivered)
				expected += float64(totals.Expected)
				wall += w
			}
			if delivered == 0 || syscalls == 0 {
				b.Fatal("soak produced no traffic")
			}
			rate := delivered / expected
			if rate < 0.98 {
				b.Fatalf("fleet delivery rate %.4f below the 98%% floor", rate)
			}
			b.ReportMetric(rate, "delivery-rate")
			b.ReportMetric(delivered/wall.Seconds(), "events/sec")
			b.ReportMetric(syscalls/delivered, "syscalls/event")
			b.ReportMetric(datagrams/syscalls, "datagrams/syscall")
		})
	}
}

func boolToInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// freeSoakPort reserves an ephemeral loopback UDP port and releases it for
// a child to re-bind.
func freeSoakPort() (int, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	port := conn.LocalAddr().(*net.UDPAddr).Port
	return port, conn.Close()
}
