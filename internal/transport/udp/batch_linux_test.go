//go:build linux && (amd64 || arm64)

package udp

import (
	"errors"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/transport"
)

// TestSendAllPartialCompletion pins the sendmmsg retry contract: the kernel
// may accept k < n messages (the first k are on the wire, the rest were
// never attempted), and sendAll must resubmit exactly the tail until the
// vector drains.
func TestSendAllPartialCompletion(t *testing.T) {
	msgs := make([]outFrame, 10)
	for i := range msgs {
		msgs[i].buf = []byte{byte(i)}
	}
	var calls [][]int        // first message index + length of each submitted chunk
	accept := []int{4, 1, 5} // the kernel takes 4, then 1, then the rest
	sent := 0
	syscalls, n, err := sendAll(msgs, 64, func(chunk []outFrame) (int, error) {
		calls = append(calls, []int{int(chunk[0].buf[0]), len(chunk)})
		k := accept[len(calls)-1]
		sent += k
		return k, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || syscalls != 3 {
		t.Fatalf("sent %d messages in %d syscalls, want 10 in 3", n, syscalls)
	}
	want := [][]int{{0, 10}, {4, 6}, {5, 5}}
	for i := range want {
		if calls[i][0] != want[i][0] || calls[i][1] != want[i][1] {
			t.Fatalf("call %d submitted [%d..] len %d, want [%d..] len %d",
				i, calls[i][0], calls[i][1], want[i][0], want[i][1])
		}
	}
}

// TestSendAllChunksAndErrors pins the vector-width split and the two error
// exits: a mid-stream syscall failure reports what was already accepted,
// and a zero-progress return fails rather than spinning.
func TestSendAllChunksAndErrors(t *testing.T) {
	msgs := make([]outFrame, 150)
	var lens []int
	syscalls, n, err := sendAll(msgs, 64, func(chunk []outFrame) (int, error) {
		lens = append(lens, len(chunk))
		return len(chunk), nil
	})
	if err != nil || n != 150 || syscalls != 3 {
		t.Fatalf("got (%d syscalls, %d sent, %v), want (3, 150, nil)", syscalls, n, err)
	}
	if lens[0] != 64 || lens[1] != 64 || lens[2] != 22 {
		t.Fatalf("chunk lengths %v, want [64 64 22]", lens)
	}

	boom := errors.New("boom")
	_, n, err = sendAll(msgs[:100], 64, func(chunk []outFrame) (int, error) {
		if len(chunk) == 64 {
			return 64, nil
		}
		return 10, boom // partial progress AND an error
	})
	if !errors.Is(err, boom) || n != 74 {
		t.Fatalf("got (%d sent, %v), want (74, boom)", n, err)
	}

	_, _, err = sendAll(msgs[:5], 64, func(chunk []outFrame) (int, error) {
		return 0, nil // no progress, no error: must not spin
	})
	if !errors.Is(err, errSendStall) {
		t.Fatalf("zero-progress send returned %v, want errSendStall", err)
	}
}

// TestBatchedSyscallAmortization asserts against the real kernel: a
// 128-message flush to one destination takes exactly two sendmmsg calls
// (the 64-wide vector), and the receiver drains them in far fewer recvmmsg
// calls than datagrams — the ≥4× amortization the tentpole claims. The send
// side is exact every round. The receive side races the sender: a receiver
// that wakes while sendmmsg is still delivering drains loopback datagrams
// one by one, so its floor is asked of the best of a few rounds, each on a
// fresh pair.
func TestBatchedSyscallAmortization(t *testing.T) {
	const total, rounds = 128, 5
	msgs := make([]transport.Outgoing, 0, total)
	for i := 0; i < total; i++ {
		msgs = append(msgs, transport.Outgoing{To: addr.MustParse("0.1"), Payload: sampleGossip(i)})
	}
	var st Stats
	for round := 0; round < rounds; round++ {
		a, b, tr := batchedPair(t, func(c *Config) {
			c.ReadBufferBytes = 4 << 20 // no drops: every datagram must land
		})
		sender := a.(*endpoint)
		if sender.bio == nil {
			t.Skip("kernel-batched path unavailable")
		}
		if err := sender.SendMany(msgs); err != nil {
			t.Fatal(err)
		}
		frames := collectFrames(t, b, total)
		if len(frames) != total {
			t.Fatalf("delivered %d/%d", len(frames), total)
		}
		st = tr.Stats()
		if !st.BatchSend || !st.BatchRecv {
			t.Fatalf("stats report batching off: %+v", st)
		}
		if st.SentDatagrams != total {
			t.Fatalf("SentDatagrams = %d, want %d", st.SentDatagrams, total)
		}
		if st.SendSyscalls != 2 {
			t.Fatalf("SendSyscalls = %d, want 2 (two 64-wide sendmmsg vectors)", st.SendSyscalls)
		}
		if st.RecvSyscalls*4 <= st.RecvDatagrams {
			return
		}
		t.Logf("round %d: %d recv syscalls for %d datagrams", round, st.RecvSyscalls, st.RecvDatagrams)
	}
	t.Fatalf("recv amortization too weak in every one of %d rounds: last %d syscalls for %d datagrams",
		rounds, st.RecvSyscalls, st.RecvDatagrams)
}
