// Error-path coverage for the UDP backend: resolver misses at attach time,
// double attaches, sends after teardown, and framing rejection of datagrams
// that exceed the configured bound.
package udp

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

func TestAttachUnknownResolverAddress(t *testing.T) {
	res, err := NewStaticResolver(map[string]string{"0.0": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Resolver: res})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Attach(addr.New(9, 9)); !errors.Is(err, transport.ErrUnknownAddr) {
		t.Errorf("attach with no socket mapping: err = %v, want ErrUnknownAddr", err)
	}
}

func TestDoubleAttachSameTreeAddress(t *testing.T) {
	res, err := NewStaticResolver(map[string]string{"0.0": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Resolver: res})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ep, err := tr.Attach(addr.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Attach(addr.New(0, 0)); !errors.Is(err, transport.ErrDuplicateAddr) {
		t.Errorf("second attach: err = %v, want ErrDuplicateAddr", err)
	}
	// The losing attach must not have clobbered the live endpoint's
	// registration: the survivor still resolves to a live socket.
	if err := ep.Send(addr.New(0, 0), membership.Heartbeat{}); err != nil {
		t.Errorf("survivor endpoint broken after duplicate attach: %v", err)
	}
	// After closing, the address becomes attachable again.
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Attach(addr.New(0, 0)); err != nil {
		t.Errorf("re-attach after close: %v", err)
	}
}

func TestSendAfterEndpointClose(t *testing.T) {
	res, err := NewStaticResolver(map[string]string{
		"0.0": "127.0.0.1:0",
		"0.1": "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Resolver: res})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	a, err := tr.Attach(addr.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Attach(addr.New(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(addr.New(0, 1), membership.Heartbeat{}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("send after endpoint close: err = %v, want ErrClosed", err)
	}
	// The recv channel drains and closes.
	select {
	case _, ok := <-a.Recv():
		if ok {
			t.Error("recv delivered after close")
		}
	case <-time.After(5 * time.Second):
		t.Error("recv channel not closed after endpoint close")
	}
}

func TestSendAfterTransportClose(t *testing.T) {
	res, err := NewStaticResolver(map[string]string{"0.0": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Resolver: res})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := tr.Attach(addr.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(addr.New(0, 0), membership.Heartbeat{}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("send after transport close: err = %v, want ErrClosed", err)
	}
	if _, err := tr.Attach(addr.New(0, 0)); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("attach after transport close: err = %v, want ErrClosed", err)
	}
}

// TestOversizedDatagramFramingRejected feeds the endpoint a raw datagram
// larger than its configured MaxDatagram: the endpoint counts it malformed
// instead of delivering garbage.
func TestOversizedDatagramFramingRejected(t *testing.T) {
	const maxDatagram = 512
	res, err := NewStaticResolver(map[string]string{"0.0": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Resolver: res, MaxDatagram: maxDatagram})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ep, err := tr.Attach(addr.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := res.Resolve(addr.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// A raw socket bypasses Send's own size guard.
	conn, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	huge := make([]byte, maxDatagram*2) // zero bytes: invalid framing either way
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Malformed() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := tr.Malformed(); got == 0 {
		t.Error("oversized datagram was not counted as malformed")
	}
	select {
	case env := <-ep.Recv():
		t.Errorf("oversized datagram delivered: %+v", env)
	default:
	}
}

// TestOversizedDatagramIsNeverCutToAFrame sends a valid datagram with junk
// after it to a receiver whose MaxDatagram is exactly the valid part's
// length. A read buffer of MaxDatagram bytes would let the kernel cut the
// junk off silently and deliver the frame; the datagram must instead be
// counted malformed and dropped, on both read paths, decoding or deferring.
func TestOversizedDatagramIsNeverCutToAFrame(t *testing.T) {
	sender := addr.New(0, 1)
	datagram := func(stamp uint64) []byte {
		b, err := wire.AppendMessage(addr.AppendAddress(nil, sender), membership.Leave{Addr: sender, Stamp: stamp})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, portable := range []bool{false, true} {
		for _, deferDecode := range []bool{false, true} {
			t.Run(fmt.Sprintf("portable=%v/defer=%v", portable, deferDecode), func(t *testing.T) {
				good := datagram(2)
				res, err := NewStaticResolver(map[string]string{"0.0": "127.0.0.1:0"})
				if err != nil {
					t.Fatal(err)
				}
				tr, err := New(Config{Resolver: res, MaxDatagram: len(good), Portable: portable, DeferDecode: deferDecode})
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				ep, err := tr.Attach(addr.New(0, 0))
				if err != nil {
					t.Fatal(err)
				}
				dst, err := res.Resolve(ep.Addr())
				if err != nil {
					t.Fatal(err)
				}
				conn, err := net.DialUDP("udp", nil, dst)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				cut := append(datagram(1), "junk"...)
				for _, d := range [][]byte{cut, good} {
					if _, err := conn.Write(d); err != nil {
						t.Fatal(err)
					}
				}

				var env transport.Envelope
				select {
				case env = <-ep.Recv():
				case <-time.After(5 * time.Second):
					t.Fatal("the well-formed datagram never arrived")
				}
				payload := env.Payload
				if raw, ok := payload.(transport.Raw); ok {
					payload, err = wire.NewDecoder().Decode(raw.Frame)
					raw.Release()
					if err != nil {
						t.Fatal(err)
					}
				}
				if l, ok := payload.(membership.Leave); !ok || l.Stamp != 2 || !env.From.Equal(sender) {
					t.Fatalf("first delivery is %+v from %s, want the stamp-2 Leave from %s: the oversized datagram was cut and delivered",
						payload, env.From, sender)
				}
				if got := tr.Malformed(); got != 1 {
					t.Fatalf("Malformed = %d, want 1", got)
				}
			})
		}
	}
}
