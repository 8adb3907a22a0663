// Command pmcast-udpnode runs a single pmcast process over real UDP
// sockets — one member of a group whose peers live in other processes or on
// other hosts. It is the deployment face of the pluggable transport API:
// the same runtime the simulations drive, attached to the UDP backend.
//
// The peer table maps tree addresses to sockets, inline or from a file of
// addr=host:port lines. Subscriptions use a small criterion language:
//
//   - match everything
//     b=2               integer equality
//     c>40  c<10        open numeric bounds
//     c>=40 c<=10       closed numeric bounds
//     e~Bob|Tom         string membership
//     u=true            boolean equality
//
// clauses joined by ';' are conjoined, as in the paper's Figure 2.
//
// Examples (three terminals):
//
//	pmcast-udpnode -addr 0.0 -space 2,2 -peers 0.0=127.0.0.1:7700,0.1=127.0.0.1:7701,1.0=127.0.0.1:7710 -sub 'price>100'
//	pmcast-udpnode -addr 0.1 -space 2,2 -peers ... -join 0.0 -sub '*'
//	pmcast-udpnode -addr 1.0 -space 2,2 -peers ... -join 0.0 -publish 'price=120,symbol=ACME' -linger 2s
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pmcast"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pmcast-udpnode:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("pmcast-udpnode", flag.ContinueOnError)
	addrStr := fs.String("addr", "", "this node's tree address (required)")
	spaceSpec := fs.String("space", "", "comma-separated per-depth arities, e.g. 2,2,2 (required)")
	peerSpec := fs.String("peers", "", "addr=host:port pairs, comma-separated or @file with one pair per line (required)")
	join := fs.String("join", "", "contact address to join through (empty: this node bootstraps the group)")
	subSpec := fs.String("sub", "*", "subscription, e.g. 'b=2;c>40;e~Bob|Tom'")
	publish := fs.String("publish", "", "publish one event after convergence, e.g. 'price=120,symbol=ACME'")
	r := fs.Int("r", 2, "redundancy factor R")
	f := fs.Int("f", 3, "gossip fanout F")
	c := fs.Float64("c", 2, "Pittel constant")
	gossip := fs.Duration("gossip", 25*time.Millisecond, "gossip period P")
	membership := fs.Duration("membership", 0, "membership digest period (0: 4·gossip)")
	linger := fs.Duration("linger", 0, "exit after this long (0: run until interrupted)")
	encodeWorkers := fs.Int("encode-workers", runtime.NumCPU(),
		"egress encode/send workers of the staged engine (0: serial)")
	portable := fs.Bool("portable", false,
		"opt out of the kernel-batched datapath (sendmmsg/recvmmsg vectors, on by default on Linux) and run the one-syscall-per-datagram path other platforms always use")
	rcvbuf := fs.Int("rcvbuf", 0, "requested SO_RCVBUF in bytes (0: kernel default)")
	sndbuf := fs.Int("sndbuf", 0, "requested SO_SNDBUF in bytes (0: kernel default)")
	statsEvery := fs.Duration("stats", 0,
		"print a transport/engine stats summary to stderr at this period, and once at exit (0: off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addrStr == "" || *spaceSpec == "" || *peerSpec == "" {
		return fmt.Errorf("-addr, -space and -peers are required")
	}

	space, err := parseSpace(*spaceSpec)
	if err != nil {
		return err
	}
	self, err := pmcast.ParseAddress(*addrStr)
	if err != nil {
		return err
	}
	sub, err := parseSubscription(*subSpec)
	if err != nil {
		return err
	}
	peers, err := parsePeers(*peerSpec)
	if err != nil {
		return err
	}
	res, err := pmcast.NewStaticResolver(peers)
	if err != nil {
		return err
	}
	tr, err := pmcast.NewUDPTransport(pmcast.UDPConfig{
		Resolver:         res,
		Portable:         *portable,
		ReadBufferBytes:  *rcvbuf,
		WriteBufferBytes: *sndbuf,
	})
	if err != nil {
		return err
	}
	defer tr.Close()

	n, err := pmcast.NewNode(tr, pmcast.NodeConfig{
		Addr:               self,
		Space:              space,
		R:                  *r,
		F:                  *f,
		C:                  *c,
		Subscription:       sub,
		GossipInterval:     *gossip,
		MembershipInterval: *membership,
		EncodeWorkers:      *encodeWorkers,
	})
	if err != nil {
		return err
	}
	n.Start()
	defer n.Stop()
	fmt.Fprintf(w, "%s up, subscribed to %s\n", self, sub)
	if *join != "" {
		contact, err := pmcast.ParseAddress(*join)
		if err != nil {
			return err
		}
		if err := n.Join(contact); err != nil {
			return err
		}
	}

	if *publish != "" {
		attrs, err := parseAttrs(*publish)
		if err != nil {
			return err
		}
		// Wait until the group is at least partly known before injecting.
		deadline := time.Now().Add(30 * time.Second)
		for n.KnownMembers() < 2 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		id, err := n.Publish(attrs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "published %s.%d\n", id.Origin, id.Seq)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	var timeout <-chan time.Time
	if *linger > 0 {
		timeout = time.After(*linger)
	}
	var statsTick <-chan time.Time
	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		statsTick = ticker.C
		defer printStats(n, tr) // a final summary on any exit path
	}
	for {
		select {
		case ev, ok := <-n.Deliveries():
			if !ok {
				return nil
			}
			parts := make([]string, 0, 4)
			for _, name := range ev.Names() {
				parts = append(parts, fmt.Sprintf("%s=%v", name, ev.Attr(name)))
			}
			fmt.Fprintf(w, "delivered %s.%d: %s\n",
				ev.ID().Origin, ev.ID().Seq, strings.Join(parts, " "))
		case <-statsTick:
			printStats(n, tr)
		case <-interrupt:
			fmt.Fprintf(w, "leaving (%d members known)\n", n.KnownMembers())
			n.Leave()
			return nil
		case <-timeout:
			return nil
		}
	}
}

// printStats writes one transport/engine summary line pair to stderr. The
// malformed/dropped counters are the silent-loss signals a loopback soak
// watches for; the datagrams-per-syscall ratios are the kernel-batching
// amortization.
func printStats(n *pmcast.Node, tr *pmcast.UDPTransport) {
	st := tr.Stats()
	ratio := func(datagrams, syscalls int64) float64 {
		if syscalls == 0 {
			return 0
		}
		return float64(datagrams) / float64(syscalls)
	}
	fmt.Fprintf(os.Stderr,
		"stats: send %d dgrams / %d syscalls (%.1f/call) | recv %d dgrams / %d syscalls (%.1f/call) | malformed %d dropped %d | sockbuf r%d w%d\n",
		st.SentDatagrams, st.SendSyscalls, ratio(st.SentDatagrams, st.SendSyscalls),
		st.RecvDatagrams, st.RecvSyscalls, ratio(st.RecvDatagrams, st.RecvSyscalls),
		st.Malformed, st.Dropped, st.ReadBufferBytes, st.WriteBufferBytes)
	envelopes, bytes := n.WireStats()
	flushes, flushed := n.EgressFlushStats()
	egressDropped, decodeFailed := n.EngineStats()
	fmt.Fprintf(os.Stderr,
		"stats: engine %d envelopes (%d bytes) | %d flushes carrying %d (%.1f/flush) | egress-drop %d decode-fail %d | members %d\n",
		envelopes, bytes, flushes, flushed, ratio(flushed, flushes),
		egressDropped, decodeFailed, n.KnownMembers())
}

func parseSpace(spec string) (pmcast.Space, error) {
	parts := strings.Split(spec, ",")
	arities := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return pmcast.Space{}, fmt.Errorf("space arity %q: %w", p, err)
		}
		arities[i] = v
	}
	return pmcast.NewSpace(arities...)
}

func parsePeers(spec string) (map[string]string, error) {
	var entries []string
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, err
		}
		entries = strings.Fields(string(data))
	} else {
		entries = strings.Split(spec, ",")
	}
	peers := make(map[string]string, len(entries))
	for _, kv := range entries {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("peer entry %q is not addr=host:port", kv)
		}
		if _, dup := peers[k]; dup {
			return nil, fmt.Errorf("peer %q is listed twice", k)
		}
		peers[k] = v
	}
	return peers, nil
}

// parseSubscription compiles the CLI criterion language into a pmcast
// subscription: ';'-joined clauses, each constraining one attribute.
func parseSubscription(spec string) (pmcast.Subscription, error) {
	spec = strings.TrimSpace(spec)
	if spec == "*" || spec == "" {
		return pmcast.MatchAll(), nil
	}
	sub := pmcast.MatchAll()
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		attr, crit, err := parseClause(clause)
		if err != nil {
			return sub, err
		}
		sub = sub.Where(attr, crit)
	}
	return sub, nil
}

func parseClause(clause string) (string, pmcast.Criterion, error) {
	for _, op := range []string{">=", "<=", "~", ">", "<", "="} {
		attr, val, ok := strings.Cut(clause, op)
		if !ok {
			continue
		}
		attr, val = strings.TrimSpace(attr), strings.TrimSpace(val)
		if attr == "" || val == "" {
			break
		}
		switch op {
		case "~":
			return attr, pmcast.OneOf(strings.Split(val, "|")...), nil
		case "=":
			if i, err := strconv.ParseInt(val, 10, 64); err == nil {
				return attr, pmcast.EqInt(i), nil
			}
			if b, err := strconv.ParseBool(val); err == nil {
				return attr, pmcast.IsBool(b), nil
			}
			if x, ok := parseFinite(val); ok {
				return attr, pmcast.EqFloat(x), nil
			}
			return "", pmcast.Criterion{}, fmt.Errorf("clause %q: %q is not a number or bool", clause, val)
		default:
			x, ok := parseFinite(val)
			if !ok {
				return "", pmcast.Criterion{}, fmt.Errorf("clause %q: %q is not a finite number", clause, val)
			}
			switch op {
			case ">":
				return attr, pmcast.Gt(x), nil
			case "<":
				return attr, pmcast.Lt(x), nil
			case ">=":
				return attr, pmcast.Ge(x), nil
			case "<=":
				return attr, pmcast.Le(x), nil
			}
		}
	}
	return "", pmcast.Criterion{}, fmt.Errorf("clause %q: want attr=value, attr>num, attr<num or attr~a|b", clause)
}

// parseAttrs compiles 'k=v' pairs into typed event attributes: integers,
// finite floats and booleans by syntax, strings otherwise.
func parseAttrs(spec string) (map[string]pmcast.Value, error) {
	attrs := make(map[string]pmcast.Value)
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("attribute %q is not k=v", kv)
		}
		if i, err := strconv.ParseInt(v, 10, 64); err == nil {
			attrs[k] = pmcast.Int(i)
		} else if x, ok := parseFinite(v); ok {
			attrs[k] = pmcast.Float(x)
		} else if v == "true" || v == "false" {
			attrs[k] = pmcast.Bool(v == "true")
		} else {
			attrs[k] = pmcast.Str(v)
		}
	}
	return attrs, nil
}

// parseFinite parses s as a finite float. strconv.ParseFloat also reads
// "inf", "infinity" and "nan" in any case; those are words here, not
// numbers.
func parseFinite(s string) (float64, bool) {
	x, err := strconv.ParseFloat(s, 64)
	return x, err == nil && !math.IsInf(x, 0) && !math.IsNaN(x)
}
