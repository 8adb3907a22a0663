package main

import (
	"fmt"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/node"
	"pmcast/internal/transport"
	"pmcast/internal/transport/udp"
)

// fleet is a set of real nodes hosted in this process on one fabric.
type fleet struct {
	space addr.Space
	addrs []addr.Address
	nodes []*node.Node
	tr    transport.Transport // what the nodes attached to (the tracer, when tracing)
	udp   *udp.Transport      // non-nil on the UDP fabric
	mem   *transport.Network  // non-nil on the in-memory fabric
}

// nodeConfig is the configuration every fleet member (and the step-mode twin
// the traced run replays into) is built with.
func nodeConfig(cfg *config, w *workloadSpec, space addr.Space, a addr.Address, sub interest.Subscription, roster *membership.Roster, seed int64) node.Config {
	return node.Config{
		Addr: a, Space: space,
		R: cfg.Protocol.R, F: cfg.fanout(w), C: cfg.Protocol.C,
		Subscription:     sub,
		GossipInterval:   time.Duration(w.GossipMs) * time.Millisecond,
		SuspectAfter:     time.Duration(cfg.SuspectAfterMs) * time.Millisecond,
		DeliveryBuffer:   cfg.DeliveryBuffer,
		DecodeWorkers:    w.DecodeWorkers,
		EncodeWorkers:    w.EncodeWorkers,
		StageQueue:       4096,
		Seed:             seed*1_000_003 + int64(space.Index(a)) + 1,
		MembershipRoster: roster,
		DeferViews:       true,
	}
}

func newRoster(space addr.Space, subs []interest.Subscription) (*membership.Roster, error) {
	recs := make([]membership.Record, len(subs))
	for i, s := range subs {
		recs[i] = membership.Record{Addr: space.AddressAt(i), Sub: s, Stamp: 1, Alive: true}
	}
	return membership.NewRoster(recs)
}

// buildFleet is the timed set-up of a live workload: fabric, nodes over a
// shared oracle roster, warmed views, engines started. wrap, when non-nil,
// interposes the tracer between the nodes and the fabric.
func buildFleet(cfg *config, w *workloadSpec, subs []interest.Subscription, seed int64, wrap func(transport.Transport) transport.Transport) (*fleet, error) {
	space, err := addr.Regular(w.Arity, w.Depth)
	if err != nil {
		return nil, err
	}
	f := &fleet{space: space}
	switch w.Fabric {
	case "udp":
		peers := make(map[string]string, len(subs))
		for i := range subs {
			peers[space.AddressAt(i).String()] = "127.0.0.1:0" // ephemeral; Attach registers the real port
		}
		res, err := udp.NewStaticResolver(peers)
		if err != nil {
			return nil, err
		}
		f.udp, err = udp.New(udp.Config{
			Resolver:    res,
			DeferDecode: true,
			QueueLen:    4096,
			// Closed-loop bursts must not overflow a default-sized socket
			// buffer between read wakeups; the kernel may clamp the request.
			ReadBufferBytes:  4 << 20,
			WriteBufferBytes: 4 << 20,
		})
		if err != nil {
			return nil, err
		}
		f.tr = f.udp
	case "mem":
		f.mem, err = transport.NewNetwork(transport.Config{Loss: w.Loss, Seed: seed, QueueLen: 4096})
		if err != nil {
			return nil, err
		}
		f.tr = f.mem
	default:
		return nil, fmt.Errorf("workload %s: unknown fabric %q", w.Name, w.Fabric)
	}
	if wrap != nil {
		f.tr = wrap(f.tr)
	}
	roster, err := newRoster(space, subs)
	if err != nil {
		f.stop()
		return nil, err
	}
	for i := range subs {
		a := space.AddressAt(i)
		n, err := node.New(f.tr, nodeConfig(cfg, w, space, a, subs[i], roster, seed))
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("node %s: %w", a, err)
		}
		f.addrs = append(f.addrs, a)
		f.nodes = append(f.nodes, n)
	}
	for _, n := range f.nodes {
		if err := n.WarmViews(); err != nil {
			f.stop()
			return nil, err
		}
	}
	for _, n := range f.nodes {
		n.Start()
	}
	return f, nil
}

// stop joins every node's engine and closes the fabric; nothing the fleet
// started outlives it.
func (f *fleet) stop() {
	for _, n := range f.nodes {
		n.Stop()
	}
	if f.tr != nil {
		_ = f.tr.Close() // sockets are only read from here on; nothing to flush
	}
}
