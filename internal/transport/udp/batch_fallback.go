//go:build !linux || !(amd64 || arm64)

package udp

import (
	"errors"
	"net"
)

// The kernel-batched datapath (sendmmsg/recvmmsg, see batch_linux.go)
// exists only on Linux amd64/arm64. Here newBatchIO reports "unavailable" and the endpoint keeps the portable
// one-syscall-per-datagram path; SendMany and RecvMany still work — the
// former loops Send, the latter drains the inbox — so callers never branch
// on platform, only the syscall amortization differs.
type batchIO struct{}

var errUnsupported = errors.New("udp: kernel-batched I/O unavailable on this platform")

func newBatchIO(conn *net.UDPConn, t *Transport) *batchIO { return nil }

// recvVec is never made here: the portable read loop owns one buffer.
type recvVec struct{}

func (t *Transport) initPools() {}

func (b *batchIO) flush(frames []outFrame) (int64, int64, error) {
	return 0, 0, errUnsupported
}

func (b *batchIO) recv(deliver func([]byte)) error { return errUnsupported }

// socketBuffers has no portable readback; Stats reports zero sizes.
func socketBuffers(conn *net.UDPConn) (rcv, snd int) { return 0, 0 }
