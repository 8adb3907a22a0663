package transport

import (
	"errors"
	"testing"
	"time"
	"unsafe"

	"pmcast/internal/addr"
)

// TestEnvelopeIsFourWords pins what every queued delivery costs: two
// one-word addresses and an interface.
func TestEnvelopeIsFourWords(t *testing.T) {
	if got, want := unsafe.Sizeof(Envelope{}), 4*unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("unsafe.Sizeof(Envelope{}) = %d, want %d (four words)", got, want)
	}
}

func TestAttachSendRecv(t *testing.T) {
	net := MustNetwork(Config{})
	a, err := net.Attach(addr.New(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach(addr.New(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if net.Size() != 2 {
		t.Errorf("size = %d", net.Size())
	}
	if err := a.Send(b.Addr(), "hello"); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-b.Recv():
		if env.Payload != "hello" || !env.From.Equal(a.Addr()) || !env.To.Equal(b.Addr()) {
			t.Errorf("envelope = %+v", env)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}
}

func TestDuplicateAttach(t *testing.T) {
	net := MustNetwork(Config{})
	if _, err := net.Attach(addr.New(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach(addr.New(1)); !errors.Is(err, ErrDuplicateAddr) {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownDestination(t *testing.T) {
	net := MustNetwork(Config{})
	a, _ := net.Attach(addr.New(1))
	if err := a.Send(addr.New(9), "x"); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("err = %v", err)
	}
	if net.Dropped() != 1 {
		t.Errorf("dropped = %d", net.Dropped())
	}
}

func TestLossDropsSilently(t *testing.T) {
	net := MustNetwork(Config{Loss: 1.0})
	a, _ := net.Attach(addr.New(1))
	b, _ := net.Attach(addr.New(2))
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Addr(), i); err != nil {
			t.Fatalf("loss must be silent: %v", err)
		}
	}
	if net.Dropped() != 10 {
		t.Errorf("dropped = %d", net.Dropped())
	}
	select {
	case env := <-b.Recv():
		t.Fatalf("unexpected delivery %+v", env)
	case <-time.After(20 * time.Millisecond):
	}
	// Healing the loss restores delivery.
	net.SetLoss(0)
	if err := a.Send(b.Addr(), "ok"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
	case <-time.After(time.Second):
		t.Fatal("no delivery after SetLoss(0)")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	net := MustNetwork(Config{})
	a, _ := net.Attach(addr.New(1))
	b, _ := net.Attach(addr.New(2))
	net.BlockBidirectional(a.Addr(), b.Addr())
	if err := a.Send(b.Addr(), "x"); err != nil {
		t.Fatalf("partition must be silent: %v", err)
	}
	if err := b.Send(a.Addr(), "y"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		t.Fatal("delivery across partition")
	case <-a.Recv():
		t.Fatal("delivery across partition (reverse)")
	case <-time.After(20 * time.Millisecond):
	}
	net.Heal()
	if err := a.Send(b.Addr(), "again"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
	case <-time.After(time.Second):
		t.Fatal("no delivery after heal")
	}
}

func TestDelayedDelivery(t *testing.T) {
	net := MustNetwork(Config{MinDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond})
	a, _ := net.Attach(addr.New(1))
	b, _ := net.Attach(addr.New(2))
	start := time.Now()
	if err := a.Send(b.Addr(), "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
			t.Errorf("delivered too fast: %v", elapsed)
		}
	case <-time.After(time.Second):
		t.Fatal("no delayed delivery")
	}
}

func TestCloseStopsReception(t *testing.T) {
	net := MustNetwork(Config{})
	a, _ := net.Attach(addr.New(1))
	b, _ := net.Attach(addr.New(2))
	b.Close()
	if net.Size() != 1 {
		t.Errorf("size after close = %d", net.Size())
	}
	if err := a.Send(b.Addr(), "x"); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("send to detached = %v", err)
	}
	if err := b.Send(a.Addr(), "x"); !errors.Is(err, ErrClosed) {
		t.Errorf("send from closed = %v", err)
	}
	// Recv channel closes.
	if _, ok := <-b.Recv(); ok {
		t.Error("recv channel still open")
	}
	// Double close is safe.
	b.Close()
}

func TestNetworkCloseCancelsDelayedDeliveries(t *testing.T) {
	net := MustNetwork(Config{MinDelay: 50 * time.Millisecond, MaxDelay: 60 * time.Millisecond})
	a, _ := net.Attach(addr.New(1))
	b, _ := net.Attach(addr.New(2))
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Addr(), i); err != nil {
			t.Fatal(err)
		}
	}
	// Close before any timer fires: all in-flight deliveries are cancelled
	// and no timer remains registered.
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	net.timersMu.Lock()
	pending := len(net.timers)
	net.timersMu.Unlock()
	if pending != 0 {
		t.Errorf("timers still tracked after Close: %d", pending)
	}
	select {
	case env, ok := <-b.Recv():
		if ok {
			t.Fatalf("delivery after Close: %+v", env)
		}
	case <-time.After(100 * time.Millisecond):
		t.Error("recv channel not closed")
	}
}

func TestNetworkCloseRejectsFurtherUse(t *testing.T) {
	net := MustNetwork(Config{})
	a, _ := net.Attach(addr.New(1))
	b, _ := net.Attach(addr.New(2))
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if net.Size() != 0 {
		t.Errorf("size after close = %d", net.Size())
	}
	if err := a.Send(b.Addr(), "x"); !errors.Is(err, ErrClosed) {
		t.Errorf("send on closed network = %v", err)
	}
	if _, err := net.Attach(addr.New(3)); !errors.Is(err, ErrClosed) {
		t.Errorf("attach on closed network = %v", err)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	net := MustNetwork(Config{QueueLen: 2})
	a, _ := net.Attach(addr.New(1))
	b, _ := net.Attach(addr.New(2))
	for i := 0; i < 5; i++ {
		if err := a.Send(b.Addr(), i); err != nil {
			t.Fatal(err)
		}
	}
	if net.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", net.Dropped())
	}
	got := 0
	for {
		select {
		case <-b.Recv():
			got++
			continue
		case <-time.After(20 * time.Millisecond):
		}
		break
	}
	if got != 2 {
		t.Errorf("received = %d, want 2", got)
	}
}
