// Udpcluster runs a pmcast group as real operating-system processes talking
// UDP over loopback — the paper's deployment environment, not a simulation.
//
// The parent process reserves one loopback port per member, then re-executes
// itself once per address in child mode. Each child builds a UDP transport
// from the shared address→socket table, joins through the first member, and
// prints what it delivers. Two buildings subscribe to different reading
// bands; the last child publishes one reading of each band, and every child
// must deliver exactly the one matching its subscription.
//
// Run with: go run ./examples/udpcluster
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"pmcast"
)

const (
	arity = 2
	depth = 3 // 8 members: building.floor.room with binary digits
)

func main() {
	childAddr := flag.String("addr", "", "run as the cluster member with this address (internal)")
	peerSpec := flag.String("peers", "", "comma-separated addr=host:port table (internal)")
	publish := flag.Bool("publish", false, "this member publishes the readings (internal)")
	flag.Parse()

	if *childAddr != "" {
		if err := runChild(*childAddr, *peerSpec, *publish); err != nil {
			log.Fatalf("child %s: %v", *childAddr, err)
		}
		return
	}
	if err := runParent(); err != nil {
		log.Fatal(err)
	}
}

// runParent reserves sockets, spawns one child process per address and
// relays their output.
func runParent() error {
	space := pmcast.MustRegularSpace(arity, depth)
	addrs := make([]string, space.Capacity())
	specs := make([]string, space.Capacity())
	for i := range addrs {
		addrs[i] = space.AddressAt(i).String()
		port, err := freeLoopbackPort()
		if err != nil {
			return err
		}
		specs[i] = fmt.Sprintf("%s=127.0.0.1:%d", addrs[i], port)
	}
	peers := strings.Join(specs, ",")
	self, err := os.Executable()
	if err != nil {
		return err
	}

	fmt.Printf("spawning %d processes over loopback UDP\n", len(addrs))
	var wg sync.WaitGroup
	errs := make(chan error, len(addrs))
	for i, a := range addrs {
		args := []string{"-addr", a, "-peers", peers}
		if i == len(addrs)-1 {
			args = append(args, "-publish")
		}
		cmd := exec.Command(self, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		wg.Add(2)
		go func(a string) {
			defer wg.Done()
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				fmt.Printf("[%s] %s\n", a, sc.Text())
			}
		}(a)
		go func(a string, cmd *exec.Cmd) {
			defer wg.Done()
			if err := cmd.Wait(); err != nil {
				errs <- fmt.Errorf("process %s: %w", a, err)
			}
		}(a, cmd)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	fmt.Println("udpcluster complete: every process delivered exactly its band")
	return nil
}

// runChild is one cluster member: a pmcast node over a real UDP socket.
func runChild(addrStr, peerSpec string, publisher bool) error {
	peers := make(map[string]string)
	var contact string
	for _, kv := range strings.Split(peerSpec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad peer entry %q", kv)
		}
		if contact == "" {
			contact = k
		}
		peers[k] = v
	}
	res, err := pmcast.NewStaticResolver(peers)
	if err != nil {
		return err
	}
	// The full production datapath: kernel-batched I/O (sendmmsg/recvmmsg
	// where the platform has it, with explicit socket buffers) feeding the
	// staged engine — deferred decode pairs with the ingress workers.
	tr, err := pmcast.NewUDPTransport(pmcast.UDPConfig{
		Resolver:         res,
		DeferDecode:      true,
		ReadBufferBytes:  1 << 20,
		WriteBufferBytes: 1 << 20,
	})
	if err != nil {
		return err
	}
	defer tr.Close()

	self := pmcast.MustParseAddress(addrStr)
	// Building 0 wants small readings, building 1 large ones.
	sub := pmcast.Where("reading", pmcast.Lt(50))
	if self.Digit(1) == 1 {
		sub = pmcast.Where("reading", pmcast.Ge(50))
	}
	n, err := pmcast.NewNode(tr, pmcast.NodeConfig{
		Addr:               self,
		Space:              pmcast.MustRegularSpace(arity, depth),
		R:                  2,
		F:                  4,
		C:                  3,
		Subscription:       sub,
		GossipInterval:     8 * time.Millisecond,
		MembershipInterval: 12 * time.Millisecond,
		SuspectAfter:       time.Minute,
		DecodeWorkers:      2,
		EncodeWorkers:      2,
	})
	if err != nil {
		return err
	}
	n.Start()
	defer n.Stop()
	if addrStr != contact {
		if err := n.Join(pmcast.MustParseAddress(contact)); err != nil {
			return err
		}
	}

	want := len(peers)
	deadline := time.Now().Add(30 * time.Second)
	for n.KnownMembers() != want {
		if time.Now().After(deadline) {
			return fmt.Errorf("membership stalled at %d/%d", n.KnownMembers(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("joined: %d members, subscribed to %s\n", n.KnownMembers(), sub)

	if publisher {
		for _, reading := range []float64{12, 87} {
			if _, err := n.Publish(map[string]pmcast.Value{
				"reading": pmcast.Float(reading),
			}); err != nil {
				return err
			}
		}
	}

	// Exactly one of the two readings matches this member's band.
	select {
	case ev := <-n.Deliveries():
		r, _ := ev.Attr("reading").AsFloat()
		if !sub.Matches(ev) {
			return fmt.Errorf("delivered reading=%g outside the band %s", r, sub)
		}
		fmt.Printf("delivered reading=%g\n", r)
	case <-time.After(30 * time.Second):
		return fmt.Errorf("no delivery")
	}
	// A second delivery would mean the band filter leaked.
	select {
	case ev := <-n.Deliveries():
		return fmt.Errorf("unexpected extra delivery %v", ev)
	case <-time.After(300 * time.Millisecond):
	}
	if st := tr.Stats(); st.BatchSend {
		fmt.Printf("kernel batching: %d datagrams in %d send syscalls, %d in %d recv syscalls\n",
			st.SentDatagrams, st.SendSyscalls, st.RecvDatagrams, st.RecvSyscalls)
	}
	return nil
}

// freeLoopbackPort reserves an ephemeral UDP port and releases it for the
// child to re-bind. The tiny window between release and re-bind is fine for
// an example; production deployments assign ports in their manifest.
func freeLoopbackPort() (int, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	port := conn.LocalAddr().(*net.UDPAddr).Port
	return port, conn.Close()
}
